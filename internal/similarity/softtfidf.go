package similarity

import (
	"repro/internal/index"
	"repro/internal/textproc"
)

// SoftTFIDF implements the hybrid metric of Cohen, Ravikumar & Fienberg
// (the paper's ref [15]): TF-IDF cosine generalized so that tokens need not
// match exactly — a secondary character-level similarity (Jaro-Winkler)
// above a threshold θ counts as a (discounted) match. It bridges the
// token-based and character-based families of §II-A and is robust to the
// typo noise that defeats plain set overlap.
type SoftTFIDF struct {
	tfidf *TFIDF
	// Inner is the secondary similarity; nil means Jaro-Winkler.
	Inner func(a, b string) float64
	// Theta is the secondary-similarity threshold (0.9 in the original).
	Theta float64
}

// NewSoftTFIDF builds the metric over a corpus.
func NewSoftTFIDF(c *textproc.Corpus) *SoftTFIDF {
	return &SoftTFIDF{tfidf: NewTFIDF(c), Inner: JaroWinkler, Theta: 0.9}
}

// Similarity returns the SoftTFIDF score of records i and j:
//
//	Σ_{w ∈ CLOSE(θ,i,j)} V(w,i) · V(close(w),j) · inner(w, close(w))
//
// where V are the L2-normalized tf·idf weights and close(w) is w's most
// similar token in j with inner similarity ≥ θ.
func (m *SoftTFIDF) Similarity(i, j int) float64 {
	c := m.tfidf.corpus
	if m.tfidf.norms[i] == 0 || m.tfidf.norms[j] == 0 {
		return 0
	}
	inner := m.Inner
	if inner == nil {
		inner = JaroWinkler
	}
	var sum float64
	for xi, ti := range c.Docs[i] {
		best, bestIdx := 0.0, -1
		for yj, tj := range c.Docs[j] {
			var sim float64
			if ti == tj {
				sim = 1
			} else {
				sim = inner(c.Terms[ti], c.Terms[tj])
			}
			if sim > best {
				best, bestIdx = sim, yj
			}
		}
		if bestIdx < 0 || best < m.Theta {
			continue
		}
		vi := m.tfidf.weights[i][xi] / m.tfidf.norms[i]
		vj := m.tfidf.weights[j][bestIdx] / m.tfidf.norms[j]
		sum += vi * vj * best
	}
	return sum
}

// SoftTFIDFScores scores every candidate pair.
func SoftTFIDFScores(c *textproc.Corpus, g *index.Graph) []float64 {
	m := NewSoftTFIDF(c)
	out := make([]float64, g.NumPairs())
	for id, p := range g.Pairs {
		out[id] = m.Similarity(int(p.I), int(p.J))
	}
	return out
}

// MongeElkanScores scores every candidate pair with the Monge-Elkan field
// match over the records' surface tokens, using Jaro-Winkler as the inner
// metric, symmetrized as the mean of both directions (the asymmetric
// original is order-sensitive).
func MongeElkanScores(c *textproc.Corpus, g *index.Graph) []float64 {
	words := make([][]string, c.NumRecords())
	for r, doc := range c.Docs {
		ws := make([]string, len(doc))
		for k, t := range doc {
			ws[k] = c.Terms[t]
		}
		words[r] = ws
	}
	out := make([]float64, g.NumPairs())
	for id, p := range g.Pairs {
		a, b := words[p.I], words[p.J]
		out[id] = (MongeElkan(a, b, JaroWinkler) + MongeElkan(b, a, JaroWinkler)) / 2
	}
	return out
}
