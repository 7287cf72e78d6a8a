package lint

import (
	"strings"
	"testing"
)

// FuzzDirective drives the //lint: directive parser with arbitrary comment
// text. The parser must never panic, and every accepted directive must obey
// the shape the suppression machinery relies on: a known kind, analyzer
// lists only on ignore directives, and a whitespace-normalized reason.
func FuzzDirective(f *testing.F) {
	f.Add("ignore lockhold the group-commit barrier")
	f.Add("ignore nopanic,goleak one reason covering two analyzers")
	f.Add("invariant negative n is a programmer error")
	f.Add("hotpath the fusion kernel") // a retired kind: rejected like any unknown one
	f.Add("ignore")
	f.Add("ignore lockhold")
	f.Add("invariant")
	f.Add("hotpath")
	f.Add("unknown directive text")
	f.Add("")
	f.Add("   ")
	f.Add("ignore  lockhold,   spaced reason")
	f.Add("ignore lockhold,")
	f.Add("ignore ,lockhold reason")
	f.Add("ignore\tlockhold\ttabs")
	f.Fuzz(func(t *testing.T, text string) {
		d, ok := parseDirective(text)
		if !ok {
			if d != nil {
				t.Fatalf("parseDirective(%q): not-ok but non-nil directive", text)
			}
			return
		}
		switch d.kind {
		case "ignore", "invariant":
		default:
			t.Fatalf("parseDirective(%q): accepted unknown kind %q", text, d.kind)
		}
		if d.kind != "ignore" && d.analyzers != nil {
			t.Fatalf("parseDirective(%q): %s directive carries an analyzer list", text, d.kind)
		}
		if d.kind == "ignore" && d.reason != "" && len(d.analyzers) == 0 {
			t.Fatalf("parseDirective(%q): ignore with a reason but no analyzers", text)
		}
		if d.reason != strings.TrimSpace(d.reason) {
			t.Fatalf("parseDirective(%q): reason %q not whitespace-normalized", text, d.reason)
		}
		if strings.ContainsAny(d.reason, "\n\r") {
			t.Fatalf("parseDirective(%q): reason %q spans lines", text, d.reason)
		}
		if d.used {
			t.Fatalf("parseDirective(%q): directive born used", text)
		}
	})
}
