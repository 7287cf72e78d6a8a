// Package textproc implements the text pre-processing pipeline of the
// paper (§VII-A): tokenization of record contents, normalization, and
// removal of very frequent terms that would dilute the effect of
// discriminative terms.
package textproc

import (
	"unicode"
	"unicode/utf8"
)

// TokenizeOptions controls how raw record text is split into terms.
type TokenizeOptions struct {
	// Lowercase folds all tokens to lower case. The paper's datasets are
	// matched case-insensitively.
	Lowercase bool
	// MinLen drops tokens shorter than this many runes. Zero keeps all.
	MinLen int
	// KeepDigits keeps purely numeric tokens (phone numbers, years and
	// street numbers are discriminative in the benchmark domains).
	KeepDigits bool
}

// DefaultTokenizeOptions mirrors the common practice the paper refers to:
// lowercase, drop 1-character fragments, keep numeric tokens.
func DefaultTokenizeOptions() TokenizeOptions {
	return TokenizeOptions{Lowercase: true, MinLen: 2, KeepDigits: true}
}

// Tokenize splits text into terms on any rune that is not a letter or a
// digit. Alphanumeric model codes such as "pslx350h" survive as single
// tokens, which is essential for the discriminative-term analysis.
func Tokenize(text string, opts TokenizeOptions) []string {
	// Stack scratch covers a typical record; only the result is allocated.
	var bufArr [256]byte
	var endsArr [32]int
	buf, ends := appendTokens(bufArr[:0], endsArr[:0], text, opts)
	if len(ends) == 0 {
		return nil
	}
	all := string(buf)
	tokens := make([]string, len(ends))
	start := 0
	for k, end := range ends {
		tokens[k] = all[start:end]
		start = end
	}
	return tokens
}

// Byte classes for the tokenizer's table lookup. Bytes >= 0x80 have none:
// they start or continue a multi-byte rune.
const (
	asciiAlnum = 1 << iota
	asciiDigit
)

var asciiClass = func() (t [256]uint8) {
	for c := '0'; c <= '9'; c++ {
		t[c] = asciiAlnum | asciiDigit
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = asciiAlnum
		t[c-'a'+'A'] = asciiAlnum
	}
	return t
}()

// appendTokens is the tokenizer: it appends the (folded) bytes of each
// token of text to buf, back to back, and each token's end offset in buf
// to ends. Every rune is classified after folding, exactly as if the text
// were lowered with strings.ToLower first; invalid UTF-8 bytes separate
// tokens. A run of ASCII letters and digits is classified through a table
// and copied in one inner loop, lowered as it is copied (setting bit 0x20
// lowers an ASCII letter and leaves a digit as it is); only bytes >= 0x80
// are decoded as runes. Reusing buf and ends across calls makes
// tokenizing a record allocation-free.
func appendTokens(buf []byte, ends []int, text string, opts TokenizeOptions) ([]byte, []int) {
	var fold byte
	if opts.Lowercase {
		fold = 'a' - 'A'
	}
	start := -1 // offset in buf of the open token, -1 if none
	runes, digits := 0, true
	for i := 0; i < len(text); {
		c := text[i]
		if class := asciiClass[c]; class&asciiAlnum != 0 {
			if start < 0 {
				start, runes, digits = len(buf), 0, true
			}
			j, all := i, class
			for ; j < len(text); j++ {
				c = text[j]
				class = asciiClass[c]
				if class&asciiAlnum == 0 {
					break
				}
				all &= class
				buf = append(buf, c|fold)
			}
			runes += j - i
			digits = digits && all&asciiDigit != 0
			i = j
			continue
		}
		alnum := false
		if c < utf8.RuneSelf {
			i++
		} else {
			r, w := utf8.DecodeRuneInString(text[i:])
			i += w
			if opts.Lowercase {
				r = unicode.ToLower(r)
			}
			digit := unicode.IsDigit(r)
			if alnum = digit || unicode.IsLetter(r); alnum {
				if start < 0 {
					start, runes, digits = len(buf), 0, true
				}
				buf = utf8.AppendRune(buf, r)
				runes++
				digits = digits && digit
			}
		}
		if !alnum && start >= 0 {
			buf, ends = closeToken(buf, ends, start, runes, digits, opts)
			start = -1
		}
	}
	if start >= 0 {
		buf, ends = closeToken(buf, ends, start, runes, digits, opts)
	}
	return buf, ends
}

// closeToken ends the open token buf[start:] of the given rune count: it
// records its end, or drops it when it is shorter than MinLen or an
// excluded number.
func closeToken(buf []byte, ends []int, start, runes int, digits bool, opts TokenizeOptions) ([]byte, []int) {
	if runes < opts.MinLen || (!opts.KeepDigits && digits) {
		return buf[:start], ends
	}
	return buf, append(ends, len(buf))
}

// UniqueTokens returns the distinct tokens of a record, preserving first
// occurrence order. The paper's graph models connect terms and records by
// containment, so duplicate occurrences inside one record are irrelevant.
func UniqueTokens(tokens []string) []string {
	seen := make(map[string]struct{}, len(tokens))
	out := tokens[:0:0]
	for _, t := range tokens {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
