package similarity

// Character-based string metrics (§II-A family). The fusion framework does
// not use them; they are the inner metric of the Soft TF-IDF and
// Monge-Elkan baselines.

// Jaro returns the Jaro similarity in [0, 1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := len(ra)
	if len(rb) > window {
		window = len(rb)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(ra))
	matchB := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix of
// up to 4 runes, with the standard scaling factor 0.1.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// MongeElkan computes the field-matching similarity of Monge & Elkan
// (paper ref [1]): the average over tokens of a of the best inner-metric
// similarity against any token of b.
func MongeElkan(a, b []string, inner func(string, string) float64) float64 {
	if len(a) == 0 {
		return 0
	}
	var sum float64
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			if s := inner(ta, tb); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(a))
}
