package textproc_test

import (
	"slices"
	"strings"
	"testing"
	"unicode"

	"repro/internal/textproc"
)

// FuzzTokenize drives the tokenizer with arbitrary text and option
// combinations. Tokenize feeds every downstream stage, so it must equal the
// reference tokenizer exactly, and its contract is also checked
// structurally: no panics, every token is a maximal alphanumeric run drawn
// from the (folded) input, MinLen and KeepDigits are honored, and
// UniqueTokens stays idempotent.
func FuzzTokenize(f *testing.F) {
	f.Add("Sony PSLX350H turntable", true, 2, true)
	f.Add("caffè 北京 & 123-456", false, 0, false)
	f.Add("", true, 1, true)
	f.Add("a b c aa bb aa", true, 2, true)
	f.Add(strings.Repeat("x", 300)+" \x00\xff invalid utf8", true, 2, true)
	for _, text := range awkwardTexts {
		f.Add(text, true, 2, true)
		f.Add(text, false, 1, false)
	}
	f.Fuzz(func(t *testing.T, text string, lowercase bool, minLen int, keepDigits bool) {
		if minLen < 0 || minLen > 1<<16 {
			return
		}
		opts := textproc.TokenizeOptions{Lowercase: lowercase, MinLen: minLen, KeepDigits: keepDigits}
		tokens := textproc.Tokenize(text, opts)
		if want := refTokenize(text, opts); !slices.Equal(tokens, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, tokens, want)
		}
		folded := text
		if lowercase {
			folded = strings.ToLower(text)
		}
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			if len([]rune(tok)) < minLen {
				t.Fatalf("token %q shorter than MinLen %d", tok, minLen)
			}
			if !keepDigits && isAllDigits(tok) {
				t.Fatalf("numeric token %q survived KeepDigits=false", tok)
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q contains separator rune %q", tok, r)
				}
			}
			if !strings.Contains(folded, tok) {
				t.Fatalf("token %q not a substring of the folded input", tok)
			}
		}
		unique := textproc.UniqueTokens(tokens)
		if len(unique) > len(tokens) {
			t.Fatalf("UniqueTokens grew the slice: %d -> %d", len(tokens), len(unique))
		}
		again := textproc.UniqueTokens(unique)
		if len(again) != len(unique) {
			t.Fatalf("UniqueTokens not idempotent: %d -> %d", len(unique), len(again))
		}
	})
}
