package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// GenConfig parameterizes the benchmark replica generators.
type GenConfig struct {
	// Seed drives all randomness; equal configs generate identical data.
	Seed int64
	// Scale multiplies the paper's record counts. 1.0 reproduces the
	// published sizes (858 / 1081+1092 / 1865 records).
	Scale float64
}

func (c GenConfig) scaled(n int) int {
	if c.Scale <= 0 {
		return n
	}
	v := int(math.Round(float64(n) * c.Scale))
	if v < 1 {
		v = 1
	}
	return v
}

// Paper-size constants for the Restaurant replica (§VII-A): 858 records, of
// which 106 duplicate pairs — i.e. 106 entities with two records each and
// 646 singletons.
const (
	restaurantDupEntities = 106
	restaurantSingletons  = 646
)

// GenRestaurant generates the Restaurant replica: a single-source dataset of
// restaurant records (name, address, city, phone, cuisine). Duplicates differ
// by typos, street-suffix abbreviations and dropped fields; the phone number
// is the highly discriminative token the paper's introduction mentions.
func GenRestaurant(cfg GenConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5e5a))
	nz := newNoiser(rng)

	nDup := cfg.scaled(restaurantDupEntities)
	nSingle := cfg.scaled(restaurantSingletons)
	nEntities := nDup + nSingle

	// Word pools are large and sampled with a Zipf bias: real vocabulary
	// has a short very-frequent head (removed by the frequent-term filter,
	// like "restaurant" or "street") and a long df=1 tail, with only a thin
	// mid-frequency band. A uniform small pool would put every word in
	// that mid band, where unrelated records form isolated equal-weight
	// cliques that any topological method mistakes for entities; the
	// published G_r (5,320 edges over 858 records) shows the real data is
	// far sparser than that.
	nameWords := append(append([]string{}, restaurantNameWords...), nz.wordPool(370, 2)...)
	streets := append(append([]string{}, streetNames...), nz.wordPool(270, 2)...)
	// Mid-frequency descriptor tokens ("patio", "rooftop", ...) shared by a
	// few dozen records each. They give the spurious edges of G_r a
	// continuous weight spread: without them, all records of one
	// (city, cuisine) group would pair with identical similarity and form
	// an equal-weight clique — indistinguishable from a true entity for any
	// topological method.
	descriptors := nz.wordPool(150, 2)
	generics := []string{"restaurant", "cafe", "grill"}
	suffixes := []string{"street", "avenue", "road", "drive"}

	// Records carry restaurant name, street address and phone, matching the
	// paper's description ("name and address"). There is deliberately no
	// city/cuisine column: those near-universal tokens are exactly what the
	// paper's frequent-term removal strips, and the published G_r is very
	// sparse (5,320 edges over 858 records).
	type entity struct {
		name    []string
		street  []string
		city    string
		cuisine string
		desc    []string
		phone   string
	}

	phoneSeen := make(map[string]struct{})
	uniquePhone := func() string {
		for {
			p := nz.digits(10)
			if _, dup := phoneSeen[p]; !dup {
				phoneSeen[p] = struct{}{}
				return p
			}
		}
	}

	entities := make([]entity, nEntities)
	// Chain restaurants: ~12% of entities share their full name with 1-2
	// other entities at different addresses. These are the high-Jaccard
	// non-matches of the real benchmark ("bel-air dining room" twins) that
	// cap string-similarity methods: only the discriminative tokens (phone,
	// street number) tell them apart.
	var chainName []string
	var chainCity, chainCuisine string
	chainLeft := 0
	for e := range entities {
		var name []string
		fromChain := false
		if chainLeft > 0 {
			name = append([]string{}, chainName...)
			chainLeft--
			fromChain = true
		} else {
			name = []string{nz.zipfPick(nameWords, 1.8), nz.zipfPick(nameWords, 1.8)}
			if rng.Float64() < 0.8 {
				// Generic suffix words are near-universal in this domain;
				// the small pool keeps their df above the frequent-term
				// cutoff so preprocessing strips them, as with real data.
				name = append(name, nz.pick(generics))
			}
			if rng.Float64() < 0.03 {
				chainName = name
				chainCity = cities[rng.Intn(12)]
				chainCuisine = restaurantCuisines[rng.Intn(15)]
				chainLeft = 1 + rng.Intn(2)
			}
		}
		city := cities[rng.Intn(12)]
		cuisine := restaurantCuisines[rng.Intn(15)]
		if fromChain {
			// Chain branches cluster in one metro area and share the menu,
			// so the confusable pairs overlap on name + city (+ cuisine).
			city = chainCity
			if rng.Float64() < 0.7 {
				cuisine = chainCuisine
			}
		}
		street := []string{
			nz.digits(3 + rng.Intn(2)),
			nz.zipfPick(streets, 1.8),
			nz.pick(suffixes),
		}
		entities[e] = entity{
			name:   name,
			street: street,
			// ~12 cities: each is shared by dozens of records (df below the
			// frequent-term cutoff), so unrelated restaurants in one city
			// that also share a name or street word become candidate pairs
			// — the realistic confusable background of the benchmark.
			city: city,
			// Cuisine labels are mid-frequency too; together with the city
			// they give every record a handful of comparable-weight
			// spurious edges, reproducing the published G_r density (5,320
			// edges, average degree ~12). That background is load-bearing:
			// a record whose best edge is a weak coincidence (no
			// competition) is indistinguishable from half of an isolated
			// matching pair.
			cuisine: cuisine,
			phone:   uniquePhone(),
		}
		for k := rng.Intn(3); k > 0; k-- {
			entities[e].desc = append(entities[e].desc, nz.pick(descriptors))
		}
	}

	render := func(ent entity, variant bool) []Field {
		name := ent.name
		street := ent.street
		phone := ent.phone
		cuisine := ent.cuisine
		desc := ent.desc
		if variant {
			desc = nz.dropWords(ent.desc, 0.3)
			nameCopy := make([]string, len(name))
			for i, w := range name {
				nameCopy[i] = nz.maybeTypo(w, 0.5)
			}
			name = nz.dropWords(nameCopy, 0.2)
			street = nz.abbreviate(ent.street, streetAbbrev, 0.7)
			street = nz.dropWords(street, 0.12)
			if rng.Float64() < 0.3 {
				phone = "" // many duplicates lack the phone field
			}
			if rng.Float64() < 0.4 {
				// The two sources frequently disagree on cuisine
				// ("american" vs "steakhouses" in the real benchmark).
				cuisine = restaurantCuisines[rng.Intn(15)]
			}
		}
		return []Field{
			{Name: "name", Value: strings.Join(name, " ")},
			{Name: "address", Value: strings.Join(street, " ")},
			{Name: "city", Value: ent.city},
			{Name: "cuisine", Value: cuisine},
			{Name: "notes", Value: strings.Join(desc, " ")},
			{Name: "phone", Value: phone},
		}
	}

	d := &Dataset{Name: "Restaurant", NumSources: 1}
	add := func(entityID int, fields []Field) {
		r := Record{
			ID:       len(d.Records),
			EntityID: entityID,
			Source:   0,
			Fields:   fields,
		}
		r.Text = joinFields(fields)
		d.Records = append(d.Records, r)
	}
	for e := 0; e < nDup; e++ {
		add(e, render(entities[e], false))
		add(e, render(entities[e], true))
	}
	for e := nDup; e < nEntities; e++ {
		add(e, render(entities[e], false))
	}
	// Shuffle record order, then re-assign dense IDs, so duplicates are not
	// adjacent (the benchmark files are not sorted by entity either).
	rng.Shuffle(len(d.Records), func(i, j int) {
		d.Records[i], d.Records[j] = d.Records[j], d.Records[i]
	})
	for i := range d.Records {
		d.Records[i].ID = i
	}
	if err := d.Validate(); err != nil {
		//lint:invariant generator self-check: a Validate failure here is a construction bug, not bad input
		panic(fmt.Sprintf("dataset: restaurant generator produced invalid data: %v", err))
	}
	return d
}
