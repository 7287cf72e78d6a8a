package index

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// fuzzCorpus decodes fuzz bytes into a small keyed corpus over a
// fifteen-term vocabulary: each byte below 0xf0 adds term "t" + b%15 to
// the current record, and each byte from 0xf0 up ends it, its low bit
// giving the record's source. Small term sets over a small vocabulary make
// shared/union land exactly on the Jaccard floors the options pick.
func fuzzCorpus(data []byte) map[string]liveRecord {
	const maxRecords = 48
	model := make(map[string]liveRecord)
	var toks []string
	for _, b := range data {
		if len(model) == maxRecords {
			break
		}
		if b < 0xf0 {
			toks = append(toks, fmt.Sprintf("t%d", b%15))
			continue
		}
		model[fmt.Sprintf("r%03d", len(model))] = liveRecord{text: strings.Join(toks, " "), source: int(b & 1)}
		toks = toks[:0]
	}
	return model
}

// fuzzConfig decodes an option byte: MinSharedTerms 0–3 (bits 0–1), a
// MinJaccard floor (bits 2–4), CrossSourceOnly (bit 5), a MaxTermRecords
// cap (bit 6) and a MaxDFRatio (bit 7), so upserts move the kept band.
func fuzzConfig(opt byte) Config {
	return Config{
		Corpus: textproc.CorpusOptions{
			Tokenize:   textproc.DefaultTokenizeOptions(),
			MaxDFRatio: []float64{0, 0.5}[opt>>7],
		},
		Block: BatchOptions{
			MinSharedTerms:  int(opt & 3),
			MinJaccard:      []float64{0, 0.25, 1.0 / 3, 0.5, 0.2, 2.0 / 3, 0.4, 1}[(opt>>2)&7],
			CrossSourceOnly: opt&(1<<5) != 0,
			MaxTermRecords:  []int{0, 4}[(opt>>6)&1],
		},
	}
}

// FuzzPartnerScan pins the prefix-filtered partner scan to the unfiltered
// reference enumeration on fuzzed small corpora and options: BuildGraph
// at one and two workers, and an Index loaded by upserts, whose rows and
// Materialize must match, then again after every third record is deleted
// and re-inserted with its successor's text (reused handles put partners
// on both sides of a re-derived row).
func FuzzPartnerScan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xf0, 1, 2, 4, 0xf1, 1, 2, 3, 5, 0xf0, 2, 3, 0xf1, 1, 3, 6, 7, 0xf0}, byte(2|1<<2))
	f.Add([]byte{1, 2, 0xf0, 1, 2, 3, 0xf1, 1, 2, 3, 4, 0xf0, 3, 4, 0xf1, 4, 5, 6, 0xf0}, byte(1|2<<2|1<<5))
	f.Add([]byte{1, 2, 3, 4, 0xf0, 1, 2, 5, 6, 0xf1, 1, 2, 3, 4, 5, 6, 7, 8, 0xf0, 1, 0xf1}, byte(3|3<<2|1<<6))
	f.Add([]byte{1, 0xf0, 1, 0xf1, 1, 2, 0xf0, 1, 2, 0xf1, 1, 2, 0xf0, 2, 0xf1, 1, 2, 3, 0xf0}, byte(2|4<<2|1<<7))
	f.Fuzz(func(t *testing.T, data []byte, opt byte) {
		model := fuzzCorpus(data)
		if len(model) == 0 {
			return
		}
		cfg := fuzzConfig(opt)
		wantC, wantG, ids, sources := batchView(t, model, cfg)
		for _, workers := range []int{1, 2} {
			opts := cfg.Block
			opts.Workers = workers
			got, err := BuildGraph(wantC, sources, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireGraphsEqual(t, wantG, got)
		}

		ix := New(cfg)
		for _, id := range ids {
			ix.Upsert(id, model[id].text, model[id].source)
		}
		v := ix.Materialize()
		requireExactRows(t, ix, v, 0)
		requireGraphsEqual(t, wantG, v.Graph)

		for i := 0; i < len(ids); i += 3 {
			next := model[ids[(i+1)%len(ids)]]
			ix.Delete(ids[i])
			model[ids[i]] = next
			ix.Upsert(ids[i], next.text, next.source)
		}
		_, wantG, _, _ = batchView(t, model, cfg)
		v = ix.Materialize()
		requireExactRows(t, ix, v, 1)
		requireGraphsEqual(t, wantG, v.Graph)
	})
}
