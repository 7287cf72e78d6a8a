// Package similarity implements the string-distance baseline family of the
// paper (§II-A, §VII-B): token-set Jaccard and TF-IDF cosine over candidate
// pairs, plus the character-based Jaro and Jaro-Winkler metrics and the
// Monge-Elkan field-matching scheme the related work builds on.
package similarity

import (
	"math"

	"repro/internal/index"
	"repro/internal/textproc"
)

// Jaccard scores every candidate pair with |A∩B| / |A∪B| over the records'
// term sets. Non-candidate pairs implicitly score 0 (they share no term).
func Jaccard(c *textproc.Corpus, g *index.Graph) []float64 {
	out := make([]float64, g.NumPairs())
	for id, p := range g.Pairs {
		a, b := c.Docs[p.I], c.Docs[p.J]
		inter := textproc.IntersectCount(a, b)
		union := len(a) + len(b) - inter
		if union > 0 {
			out[id] = float64(inter) / float64(union)
		}
	}
	return out
}

// TFIDF holds per-record TF-IDF vectors for cosine scoring.
type TFIDF struct {
	corpus *textproc.Corpus
	// weights[r] maps term -> tf·idf aligned with corpus.Docs[r].
	weights [][]float64
	norms   []float64
	idf     []float64
}

// NewTFIDF computes tf·idf weights with tf = raw term frequency inside the
// record and idf = log(1 + n/df), the smoothed variant that keeps df = n
// terms at non-zero weight.
func NewTFIDF(c *textproc.Corpus) *TFIDF {
	n := float64(c.NumRecords())
	m := &TFIDF{
		corpus:  c,
		weights: make([][]float64, c.NumRecords()),
		norms:   make([]float64, c.NumRecords()),
		idf:     make([]float64, c.NumTerms()),
	}
	for t, df := range c.DF {
		if df > 0 {
			m.idf[t] = math.Log(1 + n/float64(df))
		}
	}
	for r, doc := range c.Docs {
		tf := make(map[int32]int, len(doc))
		for _, t := range c.Seqs[r] {
			tf[t]++
		}
		w := make([]float64, len(doc))
		var norm float64
		for k, t := range doc {
			w[k] = float64(tf[t]) * m.idf[t]
			norm += w[k] * w[k]
		}
		m.weights[r] = w
		m.norms[r] = math.Sqrt(norm)
	}
	return m
}

// Cosine returns the TF-IDF cosine similarity of records i and j.
func (m *TFIDF) Cosine(i, j int) float64 {
	if m.norms[i] == 0 || m.norms[j] == 0 {
		return 0
	}
	a, b := m.corpus.Docs[i], m.corpus.Docs[j]
	wa, wb := m.weights[i], m.weights[j]
	var dot float64
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			dot += wa[x] * wb[y]
			x++
			y++
		}
	}
	return dot / (m.norms[i] * m.norms[j])
}

// TFIDFCosine scores every candidate pair with TF-IDF cosine similarity.
func TFIDFCosine(c *textproc.Corpus, g *index.Graph) []float64 {
	m := NewTFIDF(c)
	out := make([]float64, g.NumPairs())
	for id, p := range g.Pairs {
		out[id] = m.Cosine(int(p.I), int(p.J))
	}
	return out
}
