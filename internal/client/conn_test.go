package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// countingServer starts h behind an httptest server that counts the
// connections it accepts.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	hs := httptest.NewUnstartedServer(h)
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	return hs, &conns
}

// TestOneConnectionPerClient pins connection reuse: every attempt finishes
// its response body, so a mixed sequence on one Client (mutations, reads,
// a 404 and a retried 503) rides one keep-alive connection. A body closed
// unread makes the transport drop its connection, and the count then grows
// by one per mutation.
func TestOneConnectionPerClient(t *testing.T) {
	srv, err := serve.New(serve.Options{BreakerThreshold: -1})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	// The first PUT of "flaky" answers 503 once, so one call retries.
	var flaked atomic.Bool
	h := srv.Handler()
	hs, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/records/flaky") && !flaked.Swap(true) {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"serve: recovering","kind":"recovering"}`)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer hs.Close()

	c := newTestClient(t, hs.URL, nil)
	ctx := context.Background()
	put := func(id, text string) func() error {
		return func() error {
			_, err := c.PutRecord(ctx, "people", id, Record{Text: text})
			return err
		}
	}
	steps := []struct {
		name string
		call func() error
		want error
	}{
		{"create", func() error { _, err := c.CreateCollection(ctx, "people"); return err }, nil},
		{"put r1", put("r1", "joe's pizza 123 main st new york"), nil},
		{"put r2", put("r2", "joes pizza 123 main street new york ny"), nil},
		{"put r3", put("r3", "golden gate hardware supply san francisco"), nil},
		{"put flaky (503, then retried)", put("flaky", "blue bottle coffee 300 webster st oakland"), nil},
		{"delete r3", func() error { _, err := c.DeleteRecord(ctx, "people", "r3"); return err }, nil},
		{"resolve", func() error {
			res, err := c.Resolve(ctx, "people")
			if err == nil && res.Matches == 0 {
				err = fmt.Errorf("resolve found no match: %s", res.Raw)
			}
			return err
		}, nil},
		{"get collection", func() error {
			recs, err := c.GetCollection(ctx, "people")
			if err == nil && len(recs) != 3 {
				err = fmt.Errorf("collection holds %d records, want 3", len(recs))
			}
			return err
		}, nil},
		{"stats", func() error { _, err := c.Stats(ctx); return err }, nil},
		{"ready", func() error { return c.Ready(ctx) }, nil},
		{"get missing (404)", func() error { _, err := c.GetCollection(ctx, "nosuch"); return err }, ErrNotFound},
		{"put r4", put("r4", "mission chinese food 2234 mission st"), nil},
	}
	for _, st := range steps {
		err := st.call()
		if (st.want == nil && err != nil) || (st.want != nil && !errors.Is(err, st.want)) {
			t.Fatalf("%s: error %v, want %v", st.name, err, st.want)
		}
		if n := conns.Load(); n != 1 {
			t.Fatalf("after %s the server has accepted %d connections, want 1", st.name, n)
		}
	}
	if !flaked.Load() {
		t.Fatal("the 503 was never served, so no retry rode the connection")
	}
}

// TestOversizedBodyClosesConnection: a 2xx body with more than
// maxDrainBody bytes after its JSON value is not drained to its end. The
// call succeeds promptly, the connection is dropped, and the next call
// dials a new one.
func TestOversizedBodyClosesConnection(t *testing.T) {
	hs, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"deleted":"r1"}`)
		// Trailing whitespace until the client hangs up, capped so a
		// client that drains everything still ends the handler.
		pad := []byte(strings.Repeat(" ", 32<<10))
		for sent := 0; sent < 256<<20 && r.Context().Err() == nil; sent += len(pad) {
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
	}))
	defer hs.Close()
	c := newTestClient(t, hs.URL, nil)
	for i := 1; i <= 2; i++ {
		start := time.Now()
		if _, err := c.DeleteRecord(context.Background(), "people", "r1"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("call %d took %s: the drain read past its cap", i, elapsed)
		}
		if n := conns.Load(); n != int64(i) {
			t.Fatalf("after call %d the server has accepted %d connections, want %d (an over-cap body must not be reused)", i, n, i)
		}
	}
}

// TestStalledBodyBoundedByAttemptTimeout: a server that stalls after a
// complete JSON value holds the call no longer than AttemptTimeout, and
// the call succeeds with the value it decoded.
func TestStalledBodyBoundedByAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	hs, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"records":[{"id":"r1","text":"x"}]}`)
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hs.Close()
	defer close(release)
	const attempt = 200 * time.Millisecond
	c := newTestClient(t, hs.URL, func(o *Options) {
		o.MaxAttempts = 1
		o.AttemptTimeout = attempt
	})
	start := time.Now()
	recs, err := c.GetCollection(context.Background(), "people")
	elapsed := time.Since(start)
	if err != nil || len(recs) != 1 || recs[0].ID != "r1" {
		t.Fatalf("GetCollection = %+v, %v; want the decoded record and no error", recs, err)
	}
	if elapsed > attempt+time.Second {
		t.Fatalf("call took %s against an AttemptTimeout of %s: the drain outlived the attempt", elapsed, attempt)
	}
	if _, err := c.GetCollection(context.Background(), "people"); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2 (a stalled body's connection is closed)", n)
	}
}
