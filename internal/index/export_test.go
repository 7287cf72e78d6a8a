package index

import "repro/internal/textproc"

// Exports for the external test package index_test, which can import the
// dataset generators (they import this package).

// BuildGraphWork is BuildGraph, also returning how many posting entries
// its partner scan probed and how many suffix terms it looked up.
func BuildGraphWork(c *textproc.Corpus, source []int, opts BatchOptions) (g *Graph, probes, lookups int64, err error) {
	g, w, err := buildGraph(c, source, opts)
	return g, w.probes, w.lookups, err
}

// ScanWork returns the posting entries probed and the suffix terms looked
// up by every row scan and rebuild of the index so far.
func (ix *Index) ScanWork() (probes, lookups int64) {
	return ix.scan.work.probes, ix.scan.work.lookups
}
