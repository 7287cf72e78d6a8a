package textproc_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"

	"repro/internal/dataset"
	"repro/internal/textproc"
)

// refTokenize is the tokenizer as first written: lower the whole text, then
// split it with a rune loop. Tokenize must reproduce it exactly.
func refTokenize(text string, opts textproc.TokenizeOptions) []string {
	if opts.Lowercase {
		text = strings.ToLower(text)
	}
	var tokens []string
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		tok := text[start:end]
		start = -1
		if len([]rune(tok)) < opts.MinLen {
			return
		}
		if !opts.KeepDigits && isAllDigits(tok) {
			return
		}
		tokens = append(tokens, tok)
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
	return tokens
}

func isAllDigits(s string) bool {
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return len(s) > 0
}

// refBuildCorpus is the corpus builder as first written: a token slice and
// a UniqueTokens pass per record, a string-keyed df map, a second map
// lookup per token, and a per-record set and sort. BuildCorpus must
// reproduce it field for field.
func refBuildCorpus(texts []string, opts textproc.CorpusOptions) *textproc.Corpus {
	n := len(texts)
	tokenized := make([][]string, n)
	df := make(map[string]int)
	for i, txt := range texts {
		toks := refTokenize(txt, opts.Tokenize)
		tokenized[i] = toks
		for _, t := range textproc.UniqueTokens(toks) {
			df[t]++
		}
	}

	stop := make(map[string]struct{}, len(opts.Stopwords))
	for _, w := range opts.Stopwords {
		stop[strings.ToLower(w)] = struct{}{}
	}

	maxDF := n + 1
	if opts.MaxDFRatio > 0 {
		maxDF = int(opts.MaxDFRatio * float64(n))
		if maxDF < 2 {
			maxDF = 2 // never filter so hard that nothing can match
		}
	}
	kept := make([]string, 0, len(df))
	for t, f := range df {
		if f > maxDF {
			continue
		}
		if _, banned := stop[t]; banned {
			continue
		}
		kept = append(kept, t)
	}
	sort.Strings(kept)

	c := &textproc.Corpus{
		Terms: kept,
		Docs:  make([][]int32, n),
		Seqs:  make([][]int32, n),
		DF:    make([]int, len(kept)),
	}
	idOf := make(map[string]int, len(kept))
	for id, t := range kept {
		idOf[t] = id
	}
	for i, toks := range tokenized {
		seq := make([]int32, 0, len(toks))
		set := make(map[int32]struct{}, len(toks))
		for _, t := range toks {
			id, ok := idOf[t]
			if !ok {
				continue
			}
			seq = append(seq, int32(id))
			set[int32(id)] = struct{}{}
		}
		doc := make([]int32, 0, len(set))
		for id := range set {
			doc = append(doc, id)
		}
		sort.Slice(doc, func(a, b int) bool { return doc[a] < doc[b] })
		c.Docs[i] = doc
		c.Seqs[i] = seq
	}
	for _, doc := range c.Docs {
		for _, id := range doc {
			c.DF[id]++
		}
	}
	return c
}

// corpusDiff returns a description of the first field where got and want
// differ, or "" if they are equal field for field. Per-record slices
// compare by value, so an empty record equals a nil one.
func corpusDiff(got, want *textproc.Corpus) string {
	if !slices.Equal(got.Terms, want.Terms) {
		return fmt.Sprintf("Terms: %d terms, want %d", len(got.Terms), len(want.Terms))
	}
	if !slices.Equal(got.DF, want.DF) {
		return "DF differs"
	}
	if len(got.Docs) != len(want.Docs) || len(got.Seqs) != len(want.Seqs) {
		return fmt.Sprintf("%d docs, %d seqs; want %d, %d", len(got.Docs), len(got.Seqs), len(want.Docs), len(want.Seqs))
	}
	for i := range want.Docs {
		if !slices.Equal(got.Docs[i], want.Docs[i]) {
			return fmt.Sprintf("Docs[%d] = %v, want %v", i, got.Docs[i], want.Docs[i])
		}
		if !slices.Equal(got.Seqs[i], want.Seqs[i]) {
			return fmt.Sprintf("Seqs[%d] = %v, want %v", i, got.Seqs[i], want.Seqs[i])
		}
	}
	return ""
}

// checkAgainstReference builds the corpus both ways, requires the two to
// agree field for field, and validates the result.
func checkAgainstReference(t *testing.T, texts []string, opts textproc.CorpusOptions) {
	t.Helper()
	got := textproc.BuildCorpus(texts, opts)
	if d := corpusDiff(got, refBuildCorpus(texts, opts)); d != "" {
		t.Fatalf("BuildCorpus differs from the reference: %s", d)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// awkwardTexts exercises every branch of the tokenizer: mixed case,
// non-ASCII letters and digits, runes whose lower case has a different
// UTF-8 width ("İ" → "i", "ẞ" → "ß", Kelvin sign → "k"), invalid UTF-8,
// a literal U+FFFD, and digit-only and one-rune tokens.
var awkwardTexts = []string{
	"Sony PSLX350H, Turntable!",
	"sony pslx350h turntable",
	"İstanbul ISTANBUL istanbul",
	"STRAẞE straße Strasse",
	"\u212aelvin kelvin KELVIN", // \u212a is the Kelvin sign
	"café CAFÉ Café naïve NAÏVE",
	"北京 北京大学 東京 ٣٤٥ ١٢ 12",
	"caf\xc3 \xff\xfe broken\xc3\xa8 ok\x80ay",
	"a�b 123 4567 x9 9x",
	"ΣΊΣΥΦΟΣ σίσυφος Ꭰꭰ ǅungla ǆ",
	"",
	"--- ,,, !!!",
	"a b c aa bb aa",
}

var tokenizeVariants = []textproc.TokenizeOptions{
	textproc.DefaultTokenizeOptions(),
	{Lowercase: false, MinLen: 1, KeepDigits: true},
	{Lowercase: true, MinLen: 3, KeepDigits: false},
	{},
}

func TestBuildCorpusMatchesReference(t *testing.T) {
	synthetic := 100000
	if testing.Short() {
		synthetic = 4000
	}
	published := dataset.GenConfig{Seed: 1, Scale: 1}
	corpora := []struct {
		name  string
		texts []string
	}{
		{"synthetic", dataset.GenSynthetic(dataset.SyntheticConfig{
			Seed: 1, Records: synthetic, DuplicateRate: 0.3, VocabSize: 50000,
		}).Texts()},
		{"restaurant", dataset.GenRestaurant(published).Texts()},
		{"product", dataset.GenProduct(published).Texts()},
		{"paper", dataset.GenPaper(published).Texts()},
		{"awkward", awkwardTexts},
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstReference(t, c.texts, textproc.DefaultCorpusOptions())
		})
	}

	// Every filter and tokenizer variant on the small corpora: the stopword
	// list names a frequent term, a rare one, a mixed-case one and one the
	// corpus never contains.
	variants := map[string]textproc.CorpusOptions{
		"no filter":   {Tokenize: textproc.DefaultTokenizeOptions()},
		"tight ratio": {Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.01},
		"stopwords": {
			Tokenize:   textproc.DefaultTokenizeOptions(),
			MaxDFRatio: 0.15,
			Stopwords:  []string{"Street", "sony", "KELVIN", "İstanbul", "absent"},
		},
		"stopwords only": {
			Tokenize:  textproc.DefaultTokenizeOptions(),
			Stopwords: []string{"Street", "sony", "KELVIN", "İstanbul", "absent"},
		},
		"all filters": {Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.3, Stopwords: []string{"the"}},
	}
	for _, tok := range tokenizeVariants {
		variants[fmt.Sprintf("tokenize %+v", tok)] = textproc.CorpusOptions{Tokenize: tok, MaxDFRatio: 0.15}
	}
	for name, opts := range variants {
		for _, c := range corpora[1:] {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				checkAgainstReference(t, c.texts, opts)
			})
		}
	}
	t.Run("empty", func(t *testing.T) {
		checkAgainstReference(t, nil, textproc.DefaultCorpusOptions())
		checkAgainstReference(t, []string{"", "!!"}, textproc.DefaultCorpusOptions())
	})
}

// TestBuildCorpusBitIdenticalAcrossWorkers holds the fan-out to the
// reference at every worker count: one range, an even and an odd split,
// and more workers than some inputs have records, which leaves ranges of
// one record (the merge and the per-range remap must not depend on where
// the ranges fall).
func TestBuildCorpusBitIdenticalAcrossWorkers(t *testing.T) {
	synthetic := 100000
	if testing.Short() {
		synthetic = 4000
	}
	published := dataset.GenConfig{Seed: 1, Scale: 1}
	var replicas []string
	for _, d := range []*dataset.Dataset{
		dataset.GenRestaurant(published), dataset.GenProduct(published), dataset.GenPaper(published),
	} {
		replicas = append(replicas, d.Texts()...)
	}
	corpora := []struct {
		name  string
		texts []string
	}{
		{"synthetic", dataset.GenSynthetic(dataset.SyntheticConfig{
			Seed: 1, Records: synthetic, DuplicateRate: 0.3, VocabSize: 50000,
		}).Texts()},
		{"replicas", replicas},
		{"awkward", awkwardTexts},
		{"fewer records than workers", []string{"Sony PSLX350H", "sony turntable", "İstanbul straße sony"}},
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			opts := textproc.DefaultCorpusOptions()
			want := refBuildCorpus(c.texts, opts)
			for _, w := range []int{1, 2, 3, 8} {
				opts.Workers = w
				if d := corpusDiff(textproc.BuildCorpus(c.texts, opts), want); d != "" {
					t.Fatalf("workers=%d: BuildCorpus differs from the reference: %s", w, d)
				}
			}
		})
	}
}

// FuzzBuildCorpus splits the fuzz text into records on '\n' and requires
// BuildCorpus, fanned out over three ranges, to reproduce the reference
// builder on them.
func FuzzBuildCorpus(f *testing.F) {
	f.Add("Sony PSLX350H\nsony turntable\nPioneer VSX", 0.0)
	f.Add("İstanbul\nistanbul ẞ\nstraße \xff\xfe\nKELVIN \u212aelvin", 0.5)
	f.Add("aa bb\naa cc\naa\n\n", 0.15)
	f.Fuzz(func(t *testing.T, text string, ratio float64) {
		texts := strings.Split(text, "\n")
		opts := textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: ratio, Workers: 3}
		checkAgainstReference(t, texts, opts)
	})
}
