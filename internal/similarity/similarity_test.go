package similarity

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/textproc"
)

func setup(texts ...string) (*textproc.Corpus, *index.Graph) {
	c := textproc.BuildCorpus(texts, textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()})
	g, err := index.BuildGraph(c, nil, index.BatchOptions{})
	if err != nil {
		panic(err)
	}
	return c, g
}

func TestJaccardKnown(t *testing.T) {
	c, g := setup("aa bb cc", "aa bb dd", "ee ff")
	scores := Jaccard(c, g)
	id, ok := g.PairID(0, 1)
	if !ok {
		t.Fatal("pair (0,1) missing")
	}
	// intersection {aa,bb}=2, union {aa,bb,cc,dd}=4
	if got := scores[id]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("jaccard(0,1) = %g, want 0.5", got)
	}
	if _, ok := g.PairID(0, 2); ok {
		t.Error("records with no shared term must not be candidates")
	}
}

func TestJaccardIdenticalRecords(t *testing.T) {
	c, g := setup("aa bb", "aa bb")
	scores := Jaccard(c, g)
	id, _ := g.PairID(0, 1)
	if scores[id] != 1 {
		t.Errorf("jaccard of identical records = %g, want 1", scores[id])
	}
}

func TestJaccardRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg"}
	texts := make([]string, 30)
	for i := range texts {
		k := 1 + rng.Intn(5)
		parts := make([]string, k)
		for j := range parts {
			parts[j] = words[rng.Intn(len(words))]
		}
		texts[i] = strings.Join(parts, " ")
	}
	c, g := setup(texts...)
	for _, s := range Jaccard(c, g) {
		if s <= 0 || s > 1 {
			t.Fatalf("jaccard out of (0,1]: %g", s)
		}
	}
}

func TestTFIDFCosine(t *testing.T) {
	c, g := setup(
		"sony turntable pslx350h",
		"sony turntable pslx350h",
		"sony receiver str100",
		"panasonic phone kxtg200",
	)
	m := NewTFIDF(c)
	if got := m.Cosine(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("cosine of identical records = %g, want 1", got)
	}
	// Pair (0,2) shares only the common term "sony"; must score lower than
	// the identical pair.
	if m.Cosine(0, 2) >= m.Cosine(0, 1) {
		t.Error("cosine must rank shared-rare-term pair above shared-common-term pair")
	}
	scores := TFIDFCosine(c, g)
	for _, s := range scores {
		if s < 0 || s > 1+1e-12 {
			t.Fatalf("cosine out of [0,1]: %g", s)
		}
	}
}

func TestTFIDFIDFOrdering(t *testing.T) {
	// df(common)=4 > df(rare)=2, so idf(rare) > idf(common).
	c, _ := setup("common rare", "common rare", "common x1", "common x2")
	m := NewTFIDF(c)
	common, rare := c.Index["common"], c.Index["rare"]
	if m.idf[rare] <= m.idf[common] {
		t.Errorf("idf(rare)=%g must exceed idf(common)=%g", m.idf[rare], m.idf[common])
	}
}

func TestJaroKnown(t *testing.T) {
	if got := Jaro("martha", "marhta"); math.Abs(got-0.944444) > 1e-4 {
		t.Errorf("Jaro(martha, marhta) = %g, want ~0.9444", got)
	}
	if got := Jaro("dixon", "dicksonx"); math.Abs(got-0.766667) > 1e-4 {
		t.Errorf("Jaro(dixon, dicksonx) = %g, want ~0.7667", got)
	}
	if Jaro("abc", "xyz") != 0 {
		t.Error("disjoint strings must score 0")
	}
	if Jaro("", "") != 1 {
		t.Error("two empty strings must score 1")
	}
	if Jaro("a", "") != 0 {
		t.Error("one empty string must score 0")
	}
}

func TestJaroWinklerKnown(t *testing.T) {
	if got := JaroWinkler("martha", "marhta"); math.Abs(got-0.961111) > 1e-4 {
		t.Errorf("JaroWinkler(martha, marhta) = %g, want ~0.9611", got)
	}
	// Winkler boost must never lower the score.
	pairs := [][2]string{{"abcdef", "abcxyz"}, {"hello", "hallo"}, {"x", "y"}}
	for _, p := range pairs {
		if JaroWinkler(p[0], p[1]) < Jaro(p[0], p[1])-1e-12 {
			t.Errorf("JaroWinkler(%q,%q) below Jaro", p[0], p[1])
		}
	}
}

func TestJaroSimilarityProperties(t *testing.T) {
	f := func(a, b string) bool {
		s := Jaro(a, b)
		return s >= 0 && s <= 1 && math.Abs(s-Jaro(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMongeElkan(t *testing.T) {
	got := MongeElkan(
		[]string{"peter", "christen"},
		[]string{"petra", "christian"},
		JaroWinkler,
	)
	if got <= 0.7 || got >= 1 {
		t.Errorf("MongeElkan = %g, want in (0.7, 1)", got)
	}
	if MongeElkan(nil, []string{"x"}, JaroWinkler) != 0 {
		t.Error("empty left side must score 0")
	}
	if got := MongeElkan([]string{"abc"}, []string{"abc"}, JaroWinkler); got != 1 {
		t.Errorf("identical tokens = %g, want 1", got)
	}
}

func TestSoftTFIDFExactMatchEqualsCosine(t *testing.T) {
	// With no near-miss tokens, SoftTFIDF reduces to TF-IDF cosine.
	c, g := setup(
		"alpha beta gamma",
		"alpha beta delta",
		"zzz yyy xxx",
	)
	soft := SoftTFIDFScores(c, g)
	cosine := TFIDFCosine(c, g)
	id, _ := g.PairID(0, 1)
	if math.Abs(soft[id]-cosine[id]) > 1e-9 {
		t.Errorf("SoftTFIDF %g != cosine %g without near-misses", soft[id], cosine[id])
	}
}

func TestSoftTFIDFBridgesTypos(t *testing.T) {
	// "delicatessen" vs "delicatessan": no exact token match beyond the
	// shared anchor, but the secondary metric bridges the typo.
	c, g := setup(
		"arts delicatessen ventura",
		"arts delicatessan ventura",
		"arts gallery museum",
	)
	soft := SoftTFIDFScores(c, g)
	cosine := TFIDFCosine(c, g)
	dup, _ := g.PairID(0, 1)
	if soft[dup] <= cosine[dup] {
		t.Errorf("SoftTFIDF %g must exceed plain cosine %g on typo'd duplicates", soft[dup], cosine[dup])
	}
	for id, s := range soft {
		if s < 0 || s > 1+1e-9 {
			t.Errorf("SoftTFIDF score %d out of range: %g", id, s)
		}
	}
}

func TestSoftTFIDFThetaGate(t *testing.T) {
	c, _ := setup("alpha", "omega")
	m := NewSoftTFIDF(c)
	m.Theta = 1.0 // only exact matches count
	if got := m.Similarity(0, 1); got != 0 {
		t.Errorf("theta=1 must zero out non-identical tokens, got %g", got)
	}
}

func TestMongeElkanScoresSymmetric(t *testing.T) {
	c, g := setup(
		"peter christen smith",
		"petra christian smith",
		"unrelated words here",
	)
	scores := MongeElkanScores(c, g)
	id, _ := g.PairID(0, 1)
	if scores[id] <= 0.7 || scores[id] > 1 {
		t.Errorf("MongeElkan score = %g, want in (0.7, 1]", scores[id])
	}
}
