package faultcheck

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/serve"
	"repro/internal/wal"
)

// chaosPlan scripts the network faults for the exactly-once suites: the
// first faultyConns accepted connections cycle through the fault
// repertoire (cut mid-request, drop-response, drop-response+RST, latency),
// everything after proxies cleanly — so every retried request
// deterministically finds a working path once the fault budget is spent.
// The suites check Proxy.Accepted to confirm every faulty plan was dealt.
func chaosPlan(faultyConns int) func(int) ConnPlan {
	return func(i int) ConnPlan {
		if i >= faultyConns {
			return ConnPlan{}
		}
		switch i % 4 {
		case 0:
			// Die mid-request: the server sees a truncated stream and
			// applies nothing.
			return ConnPlan{CutAfterRequestBytes: 40, Reset: i%8 == 0}
		case 1:
			// The ambiguous failure: applied server-side, response lost.
			return ConnPlan{DropResponse: true}
		case 2:
			return ConnPlan{DropResponse: true, Reset: true}
		default:
			return ConnPlan{Delay: 5 * time.Millisecond}
		}
	}
}

// countKeyedRecords replays the WAL directory and returns how many times
// each idempotency key was journaled as a mutation (the exactly-once
// oracle: acked-once must mean journaled-once), plus the total number of
// keyed records.
func countKeyedRecords(t *testing.T, dir string) (map[string]int, int) {
	t.Helper()
	l, rec, err := wal.Open(context.Background(), wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("opening WAL for the oracle: %v", err)
	}
	defer l.Close()
	counts := make(map[string]int)
	total := 0
	for _, r := range rec.Records {
		if r.Key == "" {
			continue
		}
		counts[r.Key]++
		total++
	}
	return counts, total
}

// TestNetFaultExactlyOnceStorm is the in-process chaos acceptance: a storm
// of mutations driven through the fault proxy by the retrying client, with
// connections cut mid-request, responses dropped (with and without RST)
// and latency injected. Every logical mutation must be acknowledged
// exactly once, the WAL must hold exactly one keyed record per logical
// request, and the drop-response faults must be visible as server-side
// replays — proof the retries actually exercised the dedup path rather
// than getting lucky.
func TestNetFaultExactlyOnceStorm(t *testing.T) {
	dir := t.TempDir()
	srv, err := serve.New(serve.Options{DataDir: dir, BreakerThreshold: -1})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const faultyConns = 16
	proxy, err := NewProxy(hs.Listener.Addr().String(), chaosPlan(faultyConns))
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer proxy.Close()

	c, err := client.New(client.Options{
		BaseURL:        "http://" + proxy.Addr(),
		MaxAttempts:    faultyConns + 4, // worst case: one request eats the whole fault budget
		BaseBackoff:    2 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.CreateCollection(ctx, "chaos"); err != nil {
		t.Fatalf("create collection through proxy: %v", err)
	}

	const n = 24
	errs := Storm(n, func(i int) error {
		_, err := c.PutRecord(ctx, "chaos", fmt.Sprintf("r%02d", i),
			client.Record{Entity: fmt.Sprintf("e%d", i), Text: fmt.Sprintf("record %d payload", i)})
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mutation %d failed through the chaos proxy: %v", i, err)
		}
	}

	recs, err := c.GetCollection(ctx, "chaos")
	if err != nil {
		t.Fatalf("listing after storm: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("collection holds %d records, want %d", len(recs), n)
	}

	// The WAL oracle: one create + n puts, each journaled under its key
	// exactly once no matter how many times the wire ate the exchange.
	counts, total := countKeyedRecords(t, dir)
	if want := n + 1; total != want {
		t.Fatalf("WAL holds %d keyed mutation records, want %d: a retry was re-applied", total, want)
	}
	for key, got := range counts {
		if got != 1 {
			t.Fatalf("idempotency key %q journaled %d times, want exactly 1", key, got)
		}
	}

	// The faults must have actually bitten: drop-response connections force
	// the applied-but-unacked retry, observable as server-side replays.
	var st struct {
		Idempotency serve.IdempotencyStats `json:"idempotency"`
	}
	raw, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Idempotency.Replays == 0 {
		t.Fatal("no server-side replays recorded: the chaos plan never exercised the dedup path")
	}
	// Faults are planned per accepted connection, so a client that reused
	// its connections could route the storm around them.
	if got := proxy.Accepted(); got < faultyConns {
		t.Fatalf("the proxy accepted %d connections, want at least %d: the storm skipped part of the fault plan", got, faultyConns)
	}
	if st.Idempotency.Conflicts != 0 {
		t.Fatalf("%d idempotency conflicts: retries mutated their bodies", st.Idempotency.Conflicts)
	}
}

// TestNetFaultExactlyOnceAcrossSIGKILL is the full crash chaos
// acceptance: mutations retried through the fault proxy while the backend
// — a real erserve-style child process — is SIGKILLed mid-storm and
// restarted over the same journal directory. The retrying client bridges
// the outage; the restarted server's replayed dedup table absorbs retries
// of mutations the dead process had already applied. The WAL must end with
// exactly one keyed record per logical mutation.
func TestNetFaultExactlyOnceAcrossSIGKILL(t *testing.T) {
	if os.Getenv("CHAOS_SERVE_DIR") != "" {
		t.Skip("chaos helper invocation")
	}
	dir := t.TempDir()
	child := startChaosServe(t, dir)

	const faultyConns = 8
	proxy, err := NewProxy(child.addr, chaosPlan(faultyConns))
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer proxy.Close()

	c, err := client.New(client.Options{
		BaseURL: "http://" + proxy.Addr(),
		// Generous budget: retries must ride out the fault plan AND the
		// restart window (connection-refused + recovering 503s).
		MaxAttempts:    60,
		BaseBackoff:    5 * time.Millisecond,
		MaxBackoff:     250 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := c.CreateCollection(ctx, "chaos"); err != nil {
		t.Fatalf("create collection: %v", err)
	}

	// Kill the backend as soon as a quarter of the storm has been acked,
	// restart it on the same directory, and repoint the proxy. Mutations
	// in flight during the outage retry until the new process is ready;
	// the last quarter of the storm is gated on the restart, so a
	// deterministic share of the acks comes from the second incarnation
	// answering against its replayed dedup table.
	const n = 16
	var (
		acked          atomic.Int64
		postKill       atomic.Bool
		ackedPostKill  atomic.Int64
		restartedReady = make(chan struct{})
	)
	go func() {
		defer close(restartedReady)
		for acked.Load() < n/4 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		child.kill(t)
		postKill.Store(true)
		restarted := startChaosServe(t, dir)
		proxy.SetTarget(restarted.addr)
	}()

	errs := Storm(n, func(i int) error {
		if i >= n*3/4 {
			select {
			case <-restartedReady:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		_, err := c.PutRecord(ctx, "chaos", fmt.Sprintf("r%02d", i),
			client.Record{Entity: fmt.Sprintf("e%d", i), Text: fmt.Sprintf("record %d payload", i)})
		if err == nil {
			acked.Add(1)
			if postKill.Load() {
				ackedPostKill.Add(1)
			}
		}
		return err
	})
	<-restartedReady
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mutation %d failed across the crash: %v", i, err)
		}
	}
	if got := proxy.Accepted(); got < faultyConns {
		t.Fatalf("the proxy accepted %d connections, want at least %d: the storm skipped part of the fault plan", got, faultyConns)
	}
	if got := ackedPostKill.Load(); got < n/4 {
		t.Fatalf("only %d mutation(s) acknowledged after the kill, want at least %d: the crash did not interleave the storm", got, n/4)
	}

	// End with SIGKILL, never Shutdown: a clean drain would fold the log
	// into a final snapshot and erase the records the oracle counts.
	killChaosServe(t)

	counts, total := countKeyedRecords(t, dir)
	if want := n + 1; total != want {
		t.Fatalf("WAL holds %d keyed mutation records, want %d: a retry was re-applied across the crash", total, want)
	}
	for key, got := range counts {
		if got != 1 {
			t.Fatalf("idempotency key %q journaled %d times, want exactly 1", key, got)
		}
	}
}

// chaosChild tracks one helper process serving the collections API.
type chaosChild struct {
	cmd  *exec.Cmd
	addr string
}

// liveChaosServe holds the currently-running helper so the final
// teardown can kill whichever incarnation is alive.
var liveChaosServe atomic.Pointer[chaosChild]

// startChaosServe re-executes this test binary as a durable collections
// server over dir, scrapes its listen address, and waits until it reports
// ready.
func startChaosServe(t *testing.T, dir string) *chaosChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestChaosServeHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "CHAOS_SERVE_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("StdoutPipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting chaos serve helper: %v", err)
	}
	child := &chaosChild{cmd: cmd}
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if addr, ok := strings.CutPrefix(line, "chaos-serve listening "); ok {
			child.addr = addr
			break
		}
	}
	if child.addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("chaos serve helper never reported its address: %v", scanner.Err())
	}
	// Wait for recovery to finish so the first storm requests do not all
	// burn attempts on 503 recovering.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + child.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("chaos serve helper never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	liveChaosServe.Store(child)
	return child
}

// kill SIGKILLs the child — no drain, no final snapshot, exactly like a
// power cut.
func (c *chaosChild) kill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Errorf("SIGKILL chaos serve: %v", err)
	}
	_ = c.cmd.Wait()
}

// killChaosServe kills whichever helper incarnation is currently alive.
func killChaosServe(t *testing.T) {
	t.Helper()
	if c := liveChaosServe.Swap(nil); c != nil {
		c.kill(t)
	}
}

// TestChaosServeHelper is the child side of the SIGKILL chaos test: a
// durable collections server on an ephemeral port, alive until killed. It
// only runs when CHAOS_SERVE_DIR is set; under a normal `go test` it
// skips.
func TestChaosServeHelper(t *testing.T) {
	dir := os.Getenv("CHAOS_SERVE_DIR")
	if dir == "" {
		t.Skip("not a chaos helper invocation")
	}
	srv, err := serve.New(serve.Options{DataDir: dir, BreakerThreshold: -1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos serve New: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos serve listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("chaos-serve listening %s\n", ln.Addr())
	// Serve until the parent kills the process; there is deliberately no
	// graceful path out.
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "chaos serve: %v\n", err)
		os.Exit(1)
	}
}
