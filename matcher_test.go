package er

import (
	"bytes"
	"strings"
	"testing"
)

func matcherFixture(t *testing.T) (*Dataset, *Matcher) {
	t.Helper()
	d := NewDataset("catalog", []Record{
		{Text: "sony turntable pslx350h audio deck"},
		{Text: "sony pslx350h turntable dust audio"},
		{Text: "pioneer receiver vsx321 audio amp"},
		{Text: "pioneer vsx321 receiver audio black"},
		{Text: "canon powershot a590 camera zoom"},
		{Text: "canon a590 powershot camera case"},
	})
	p := mustNewPipeline(t, d, DefaultOptions())
	out := mustFusion(t, p)
	return d, p.Matcher(out)
}

func TestMatcherFindsDuplicates(t *testing.T) {
	_, m := matcherFixture(t)
	got := m.Match("sony pslx350h turntable refurbished", 3)
	if len(got) == 0 {
		t.Fatal("no candidates")
	}
	if got[0].Record != 0 && got[0].Record != 1 {
		t.Errorf("top candidate = %d, want a sony turntable record", got[0].Record)
	}
	// The model code must rank among the top shared terms.
	if got[0].SharedTerms[0] != "pslx350h" {
		t.Errorf("top shared term = %q, want pslx350h", got[0].SharedTerms[0])
	}
	// A pioneer record, sharing only "audio"-free terms... it shares
	// nothing weighted with the query, so it must score below the sonys.
	for _, c := range got {
		if c.Record >= 2 && c.Similarity >= got[0].Similarity {
			t.Errorf("unrelated record %d ranked at %g >= top %g", c.Record, c.Similarity, got[0].Similarity)
		}
	}
}

func TestMatcherNoOverlap(t *testing.T) {
	_, m := matcherFixture(t)
	if got := m.Match("completely unrelated text zzz", 5); len(got) != 0 {
		t.Errorf("no-overlap query returned %v", got)
	}
}

func TestMatcherTopK(t *testing.T) {
	_, m := matcherFixture(t)
	all := m.Match("canon powershot a590 camera", 0)
	if len(all) < 2 {
		t.Fatalf("expected at least the two canon records, got %v", all)
	}
	one := m.Match("canon powershot a590 camera", 1)
	if len(one) != 1 || one[0].Record != all[0].Record || one[0].Similarity != all[0].Similarity {
		t.Error("k=1 must return the top candidate of the full ranking")
	}
}

func TestMatcherSaveLoadRoundTrip(t *testing.T) {
	_, m := matcherFixture(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadMatcher(&buf)
	if err != nil {
		t.Fatal(err)
	}
	query := "sony pslx350h turntable"
	a := m.Match(query, 3)
	b := back.Match(query, 3)
	if len(a) != len(b) {
		t.Fatalf("round trip changed candidate count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Record != b[i].Record || a[i].Similarity != b[i].Similarity {
			t.Fatalf("round trip changed ranking at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLoadMatcherErrors(t *testing.T) {
	if _, err := LoadMatcher(strings.NewReader("not json")); err == nil {
		t.Error("garbage input must fail")
	}
	if _, err := LoadMatcher(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("unknown version must fail")
	}
	if _, err := LoadMatcher(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("missing fields must fail")
	}
}
