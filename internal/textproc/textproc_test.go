package textproc

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	tests := []struct {
		name string
		in   string
		opts TokenizeOptions
		want []string
	}{
		{
			name: "default splits on punctuation and lowercases",
			in:   "Sony PSLX350H, Turntable!",
			opts: DefaultTokenizeOptions(),
			want: []string{"sony", "pslx350h", "turntable"},
		},
		{
			name: "keeps digit tokens",
			in:   "call 2125551234 now",
			opts: DefaultTokenizeOptions(),
			want: []string{"call", "2125551234", "now"},
		},
		{
			name: "drops digit tokens when disabled",
			in:   "call 2125551234 now",
			opts: TokenizeOptions{Lowercase: true, MinLen: 2},
			want: []string{"call", "now"},
		},
		{
			name: "min length filter",
			in:   "a bc d ef",
			opts: TokenizeOptions{Lowercase: true, MinLen: 2, KeepDigits: true},
			want: []string{"bc", "ef"},
		},
		{
			name: "empty input",
			in:   "",
			opts: DefaultTokenizeOptions(),
			want: nil,
		},
		{
			name: "only punctuation",
			in:   "--- ,,, !!!",
			opts: DefaultTokenizeOptions(),
			want: nil,
		},
		{
			name: "preserves case when not lowering",
			in:   "Sony TV",
			opts: TokenizeOptions{MinLen: 2, KeepDigits: true},
			want: []string{"Sony", "TV"},
		},
		{
			name: "unicode letters survive",
			in:   "café naïve",
			opts: DefaultTokenizeOptions(),
			want: []string{"café", "naïve"},
		},
		{
			name: "trailing token flushed",
			in:   "abc def",
			opts: DefaultTokenizeOptions(),
			want: []string{"abc", "def"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Tokenize(tc.in, tc.opts)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestTokenizeNeverPanicsAndTokensAreClean(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s, DefaultTokenizeOptions())
		for _, tok := range toks {
			if len(tok) == 0 {
				return false
			}
			if strings.ContainsAny(tok, " ,.!-") {
				return false
			}
			if tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniqueTokens(t *testing.T) {
	got := UniqueTokens([]string{"a", "b", "a", "c", "b"})
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UniqueTokens = %v, want %v", got, want)
	}
	if got := UniqueTokens(nil); len(got) != 0 {
		t.Errorf("UniqueTokens(nil) = %v, want empty", got)
	}
}

func TestBuildCorpus(t *testing.T) {
	texts := []string{
		"sony turntable pslx350h",
		"sony turntable deluxe",
		"pioneer receiver vsx",
	}
	c := BuildCorpus(texts, CorpusOptions{Tokenize: DefaultTokenizeOptions()})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumRecords() != 3 {
		t.Fatalf("NumRecords = %d, want 3", c.NumRecords())
	}
	id, ok := slices.BinarySearch(c.Terms, "sony")
	if !ok {
		t.Fatal("term sony missing")
	}
	if c.DF[id] != 2 {
		t.Errorf("df(sony) = %d, want 2", c.DF[id])
	}
	shared := c.SharedTerms(0, 1)
	if len(shared) != 2 {
		t.Errorf("records 0,1 share %d terms, want 2 (sony, turntable)", len(shared))
	}
	if n := IntersectCount(c.Docs[0], c.Docs[2]); n != 0 {
		t.Errorf("records 0,2 share %d terms, want 0", n)
	}
}

func TestBuildCorpusFrequentTermFilter(t *testing.T) {
	// "common" appears in all 10 records and must be filtered at ratio 0.5.
	texts := make([]string, 10)
	for i := range texts {
		texts[i] = "common unique" + string(rune('a'+i))
	}
	c := BuildCorpus(texts, CorpusOptions{
		Tokenize:   DefaultTokenizeOptions(),
		MaxDFRatio: 0.5,
	})
	if _, ok := slices.BinarySearch(c.Terms, "common"); ok {
		t.Error("frequent term 'common' should have been removed")
	}
	if c.NumTerms() != 10 {
		t.Errorf("NumTerms = %d, want 10 unique tokens", c.NumTerms())
	}
}

// TestBuildCorpusKeepsRareTerms pins that no minimum document frequency
// applies: a term seen in one record is kept, since rare terms are the
// ones that carry the most weight in term-record ranking.
func TestBuildCorpusKeepsRareTerms(t *testing.T) {
	texts := []string{"aa bb", "aa cc"}
	for _, opts := range []CorpusOptions{DefaultCorpusOptions(), {Tokenize: DefaultTokenizeOptions()}} {
		c := BuildCorpus(texts, opts)
		if !reflect.DeepEqual(c.Terms, []string{"aa", "bb", "cc"}) {
			t.Fatalf("opts %+v: terms = %q, want [aa bb cc]", opts, c.Terms)
		}
		for _, term := range []string{"bb", "cc"} {
			if df := c.DF[termID(c, term)]; df != 1 {
				t.Errorf("opts %+v: df(%s) = %d, want 1", opts, term, df)
			}
		}
	}
}

func TestBuildCorpusDeterminism(t *testing.T) {
	texts := []string{"zebra apple", "apple mango", "mango zebra kiwi"}
	a := BuildCorpus(texts, DefaultCorpusOptions())
	b := BuildCorpus(texts, DefaultCorpusOptions())
	if !reflect.DeepEqual(a, b) {
		t.Error("BuildCorpus is not deterministic")
	}
	if !sort.StringsAreSorted(a.Terms) {
		t.Error("terms are not assigned in sorted order")
	}
}

func TestIntersectSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomSortedSet(rng, 30, 50)
		b := randomSortedSet(rng, 30, 50)
		got := IntersectSorted(a, b)
		want := naiveIntersect(a, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("IntersectSorted(%v,%v) = %v, want %v", a, b, got, want)
		}
		if IntersectCount(a, b) != len(want) {
			t.Fatalf("IntersectCount mismatch for %v,%v", a, b)
		}
	}
}

func randomSortedSet(rng *rand.Rand, maxLen, maxVal int) []int32 {
	n := rng.Intn(maxLen)
	set := make(map[int32]struct{})
	for i := 0; i < n; i++ {
		set[int32(rng.Intn(maxVal))] = struct{}{}
	}
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func naiveIntersect(a, b []int32) []int32 {
	var out []int32
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
			}
		}
	}
	return out
}

func TestValidateCatchesCorruption(t *testing.T) {
	build := func() *Corpus {
		return BuildCorpus([]string{"aa bb aa", "bb cc", "cc dd"}, CorpusOptions{Tokenize: DefaultTokenizeOptions()})
	}
	if err := build().Validate(); err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func(c *Corpus){
		"df":               func(c *Corpus) { c.DF[0]++ },
		"seq out of range": func(c *Corpus) { c.Seqs[1][0] = int32(len(c.Terms)) },
		"seq negative":     func(c *Corpus) { c.Seqs[1][0] = -1 },
		"doc not seq set":  func(c *Corpus) { c.Seqs[0] = c.Seqs[0][:1] },
		"doc order":        func(c *Corpus) { c.Docs[0][0], c.Docs[0][1] = c.Docs[0][1], c.Docs[0][0] },
		"terms not ascending": func(c *Corpus) {
			c.Terms[0], c.Terms[1] = c.Terms[1], c.Terms[0]
		},
	}
	for name, corrupt := range corruptions {
		c := build()
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate missed %s corruption", name)
		}
	}
}

// TestCorpusRecordsDoNotAlias holds the cap-limited shared backing of Docs
// and Seqs: appending to one record's slice must reallocate, never write
// into the next record's window.
func TestCorpusRecordsDoNotAlias(t *testing.T) {
	texts := []string{"aa bb aa cc", "bb cc dd", "dd ee"}
	c := BuildCorpus(texts, CorpusOptions{Tokenize: DefaultTokenizeOptions()})
	wantDocs, wantSeqs := slices.Clone(c.Docs[1]), slices.Clone(c.Seqs[1])
	for i := 0; i < 2; i++ {
		_ = append(c.Docs[i], 99, 99, 99)
		_ = append(c.Seqs[i], 99, 99, 99)
	}
	if !slices.Equal(c.Docs[1], wantDocs) || !slices.Equal(c.Seqs[1], wantSeqs) {
		t.Fatalf("appending to record 0 changed record 1: docs %v seqs %v, want %v %v",
			c.Docs[1], c.Seqs[1], wantDocs, wantSeqs)
	}
	if !slices.Equal(c.Docs[2], []int32{3, 4}) || !slices.Equal(c.Seqs[2], []int32{3, 4}) {
		t.Fatalf("appending to record 1 changed record 2: docs %v seqs %v", c.Docs[2], c.Seqs[2])
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildCorpusStopwords(t *testing.T) {
	c := BuildCorpus(
		[]string{"acme inc widgets", "acme llc gadgets"},
		CorpusOptions{
			Tokenize:  DefaultTokenizeOptions(),
			Stopwords: []string{"INC", "llc"},
		},
	)
	if _, ok := slices.BinarySearch(c.Terms, "inc"); ok {
		t.Error("stopword inc survived (case-insensitive match expected)")
	}
	if _, ok := slices.BinarySearch(c.Terms, "llc"); ok {
		t.Error("stopword llc survived")
	}
	if _, ok := slices.BinarySearch(c.Terms, "acme"); !ok {
		t.Error("non-stopword removed")
	}
}

// termID returns a kept term's ID by binary search over the corpus's
// ascending Terms, or -1 when the corpus does not keep it.
func termID(c *Corpus, term string) int {
	if id, ok := slices.BinarySearch(c.Terms, term); ok {
		return id
	}
	return -1
}
