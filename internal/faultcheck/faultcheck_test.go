package faultcheck

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/guard"
)

func sampleCSV() string {
	var b strings.Builder
	b.WriteString("id,entity,source,text\n")
	rows := []string{
		`0,e0,0,"ipod nano 4gb silver"`,
		`1,e0,1,"apple ipod nano 4 gb"`,
		`2,e1,0,"canon powershot sd1100"`,
		`3,e1,1,"canon power shot sd 1100 is"`,
		`4,,0,"unlabeled widget, with comma"`,
	}
	b.WriteString(strings.Join(rows, "\n"))
	b.WriteString("\n")
	return b.String()
}

// TestChaosReaderDeliversEverything checks that pure fragmentation (no
// failure point) is invisible to the consumer: the bytes come out intact.
func TestChaosReaderDeliversEverything(t *testing.T) {
	payload := sampleCSV()
	for seed := int64(1); seed <= 20; seed++ {
		cr := New(strings.NewReader(payload), seed)
		cr.MaxChunk = 1 + int(seed)%5
		got, err := io.ReadAll(cr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if string(got) != payload {
			t.Fatalf("seed %d: payload corrupted by fragmentation", seed)
		}
	}
}

// TestChaosReaderFailsMidStream checks the failure point: exactly FailAfter
// bytes are delivered, then every Read returns ErrInjected.
func TestChaosReaderFailsMidStream(t *testing.T) {
	payload := sampleCSV()
	cr := New(strings.NewReader(payload), 7)
	cr.FailAfter = 10
	got, err := io.ReadAll(cr)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d bytes before failing, want 10", len(got))
	}
	if _, err := cr.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatal("reader must stay broken after the injected failure")
	}
}

// TestLoadCSVUnderShortReads feeds LoadCSVCheck through aggressive
// fragmentation at many seeds and requires the parse to be byte-for-byte
// equivalent to a clean read.
func TestLoadCSVUnderShortReads(t *testing.T) {
	payload := sampleCSV()
	want, err := dataset.LoadCSVCheck(strings.NewReader(payload), "clean", nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 25; seed++ {
		cr := New(strings.NewReader(payload), seed)
		cr.MaxChunk = 3
		got, err := dataset.LoadCSVCheck(cr, "clean", nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("seed %d: %d records, want %d", seed, len(got.Records), len(want.Records))
		}
		for i := range got.Records {
			g, w := got.Records[i], want.Records[i]
			if g.ID != w.ID || g.EntityID != w.EntityID || g.Source != w.Source || g.Text != w.Text {
				t.Fatalf("seed %d: record %d differs: %+v vs %+v", seed, i, g, w)
			}
		}
	}
}

// TestLoadCSVMidStreamError injects a failure at every byte offset of the
// stream and requires LoadCSVCheck to return an error wrapping ErrInjected —
// never a panic, never a silently truncated dataset.
func TestLoadCSVMidStreamError(t *testing.T) {
	payload := sampleCSV()
	for off := int64(0); off < int64(len(payload)); off++ {
		cr := New(strings.NewReader(payload), 3)
		cr.FailAfter = off
		d, err := dataset.LoadCSVCheck(cr, "chaos", nil)
		if err == nil {
			t.Fatalf("offset %d: parse succeeded on a truncated, failed stream (%d records)",
				off, len(d.Records))
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("offset %d: error %v does not wrap the injected fault", off, err)
		}
	}
}

// TestChaosReaderEmptyBuffer documents the io.Reader contract corner: a
// zero-length destination reads zero bytes without consuming the failure
// budget.
func TestChaosReaderEmptyBuffer(t *testing.T) {
	cr := New(bytes.NewReader([]byte("abc")), 1)
	if n, err := cr.Read(nil); n != 0 || err != nil {
		t.Fatalf("Read(nil) = %d, %v", n, err)
	}
}

// TestSlowReaderDeliversEverything checks that throttling is invisible to
// the consumer (bytes intact, Pause invoked once per read).
func TestSlowReaderDeliversEverything(t *testing.T) {
	payload := sampleCSV()
	pauses := 0
	sr := NewSlowReader(strings.NewReader(payload), 3, func() { pauses++ })
	got, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatal("payload corrupted by throttled delivery")
	}
	if pauses < len(payload)/3 {
		t.Fatalf("Pause invoked %d times for %d bytes of 3-byte reads", pauses, len(payload))
	}
}

// TestCancelAfterReaderFiresOnce pins the cancellation offset: the hook
// fires exactly once, at the first read that crosses the threshold, and the
// stream keeps delivering afterwards.
func TestCancelAfterReaderFiresOnce(t *testing.T) {
	payload := sampleCSV()
	fired := 0
	cr := NewCancelAfterReader(strings.NewReader(payload), 10, func() { fired++ })
	got, err := io.ReadAll(cr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatal("payload corrupted")
	}
	if fired != 1 {
		t.Fatalf("cancel fired %d times, want 1", fired)
	}
}

// TestLoadCSVCheckCancelsMidParse is the satellite acceptance test: a huge
// CSV stream whose context is canceled partway must abort the parse with
// the cancellation cause well before the stream is consumed — the row loop,
// not only the final Validate, observes the checkpoint.
func TestLoadCSVCheckCancelsMidParse(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,entity,source,text\n")
	for i := 0; i < 50_000; i++ {
		fmt.Fprintf(&b, "%d,,0,record number %d with some words\n", i, i)
	}
	payload := b.String()
	ctx, cancel := context.WithCancel(context.Background())
	src := NewCancelAfterReader(strings.NewReader(payload), int64(len(payload)/10), cancel)
	check := guard.FromContext(ctx).WithStride(1)
	d, err := dataset.LoadCSVCheck(src, "huge", check)
	if err == nil {
		t.Fatalf("canceled mid-parse yet parsed %d records to completion", len(d.Records))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if src.delivered > int64(len(payload))/2 {
		t.Fatalf("parse consumed %d of %d bytes after cancellation — row loop is not polling",
			src.delivered, len(payload))
	}
}

// TestStormRunsEveryInvocation checks the storm driver's accounting: n
// results, index-aligned, none lost.
func TestStormRunsEveryInvocation(t *testing.T) {
	errs := Storm(32, func(i int) error {
		if i%2 == 0 {
			return nil
		}
		return fmt.Errorf("odd %d", i)
	})
	if len(errs) != 32 {
		t.Fatalf("%d results for 32 invocations", len(errs))
	}
	for i, err := range errs {
		if (i%2 == 0) != (err == nil) {
			t.Fatalf("result %d misaligned: %v", i, err)
		}
	}
}

// TestCasesAreDeterministic ensures replayability: two invocations generate
// identical suites.
func TestCasesAreDeterministic(t *testing.T) {
	a, b := Cases(), Cases()
	if len(a) != len(b) {
		t.Fatal("suite size not deterministic")
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Records) != len(b[i].Records) {
			t.Fatalf("case %d differs between invocations", i)
		}
		for j := range a[i].Records {
			if a[i].Records[j] != b[i].Records[j] {
				t.Fatalf("case %s record %d not deterministic", a[i].Name, j)
			}
		}
	}
}
