package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	er "repro"
	"repro/internal/client"
	"repro/internal/serve"
)

// serveClients is the closed-loop client count: one load process with at
// most nproc (2 on the reference machine) goroutines and connections.
const serveClients = 2

// putsPerCycle is how many keyed upserts a client sends before each
// resolve.
const putsPerCycle = 4

// serveCollection is the collection the workload writes and resolves.
const serveCollection = "bench"

// retainedJobs is the server's job history. Each retained resolve result
// holds about 2.5 MiB at 20k records, so the default history of 256 makes
// a 670 MiB heap that every collection rescans and that takes 128 cycles
// per client to fill. A history of 32 still keeps a job's size in
// live_heap_mib and fills within seconds.
const retainedJobs = 32

// requestTimeout bounds one client call; nothing in a healthy run comes
// near it.
const requestTimeout = 60 * time.Second

// serveEnv is one in-process server behind a loopback listener, with the
// retrying client the load goes through.
type serveEnv struct {
	srv     *serve.Server
	hs      *httptest.Server
	tr      *http.Transport
	cl      *client.Client
	retries atomic.Int64
}

func startServe(seed int64) (*serveEnv, error) {
	// DataDir is a name inside the in-memory FS; with the default
	// FsyncInterval every mutation waits for its own Sync.
	srv, err := serve.New(serve.Options{DataDir: "wal", WALFS: newMemFS(), RetainedJobs: retainedJobs})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	e := &serveEnv{srv: srv, hs: httptest.NewServer(srv.Handler())}
	e.tr = &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	e.cl, err = client.New(client.Options{
		BaseURL:    e.hs.URL,
		HTTPClient: &http.Client{Transport: e.tr},
		Rand:       rand.New(rand.NewSource(seed)),
		Logf:       func(string, ...any) { e.retries.Add(1) },
	})
	if err != nil {
		_ = e.close() // the start-up error is the one to report
		return nil, fmt.Errorf("starting client: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	// Recovery of the empty journal runs in the background; the client's
	// retries ride out its 503s.
	if err := e.cl.Ready(ctx); err != nil {
		_ = e.close() // the start-up error is the one to report
		return nil, fmt.Errorf("waiting for readiness: %w", err)
	}
	if _, err := e.cl.CreateCollection(ctx, serveCollection); err != nil {
		_ = e.close() // the start-up error is the one to report
		return nil, fmt.Errorf("creating collection: %w", err)
	}
	return e, nil
}

// close drains the server (writing its final snapshot), then stops the
// listener and the client's connections.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	e.hs.Close()
	e.tr.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("draining server: %w", err)
	}
	return nil
}

func (e *serveEnv) stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	raw, err := e.cl.Stats(ctx)
	if err != nil {
		return st, fmt.Errorf("fetching stats: %w", err)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("decoding stats: %w", err)
	}
	return st, nil
}

// resolveBody is the part of a collection resolve response the benchmark
// reads.
type resolveBody struct {
	QueueWaitMs float64 `json:"queue_wait_ms"`
	RunMs       float64 `json:"run_ms"`
	Matches     int     `json:"matches"`
	Clusters    int     `json:"clusters"`
	Evaluation  *struct {
		F1 float64 `json:"f1"`
	} `json:"evaluation"`
	Stages []struct {
		Stage  string  `json:"stage"`
		WallMs float64 `json:"wall_ms"`
	} `json:"stages"`
}

func (b *resolveBody) stage(name string) float64 {
	for _, s := range b.Stages {
		if s.Stage == name {
			return s.WallMs
		}
	}
	return 0
}

func (e *serveEnv) resolve(ctx context.Context) (*resolveBody, error) {
	res, err := e.cl.Resolve(ctx, serveCollection)
	if err != nil {
		return nil, err
	}
	var b resolveBody
	if err := json.Unmarshal(res.Raw, &b); err != nil {
		return nil, fmt.Errorf("decoding resolve response: %w", err)
	}
	if b.Evaluation == nil {
		return nil, fmt.Errorf("resolve response carries no evaluation")
	}
	return &b, nil
}

// clientLog is what one load goroutine observed.
type clientLog struct {
	cycles                 []timing
	traced, puts, resolves []float64
	bodies                 []*resolveBody
	tracedOps              []int
	err                    error
}

// runServe is serve-20k: an in-process serve.Server behind a loopback
// HTTP listener, its journal on an in-memory FS. Set-up loads the corpus
// through the retrying client's PutRecord over two connections and pays
// the first (mirror-building) resolve. Then two closed-loop clients each
// cycle through four keyed duplicate-donor upserts and one collection
// resolve, so writes meet reads in admission, the WAL, JSON and the delta
// resolver. The smaller corpus keeps the serving layer's own cost visible
// next to the resolve.
func runServe(c *runConfig) (*outcome, error) {
	var s serveRun
	release := func() error {
		s.in, s.content = nil, nil
		return s.close()
	}
	setups, err := timeSetups(c.cal, c.setups, c.setupMin, release, func() error { return s.load(c) })
	if err == nil {
		var o *outcome
		o, err = s.measure(c, setups)
		if err == nil {
			return o, s.close()
		}
	}
	_ = s.close() // the earlier error is the one to report
	return nil, err
}

// serveRun is the state one serving run carries from set-up to checks.
type serveRun struct {
	in  *corpus
	env *serveEnv
	// content[i] is the record whose text and label record i now holds.
	content []int
}

// close stops the server the last set-up started, if any.
func (s *serveRun) close() error {
	if s.env == nil {
		return nil
	}
	env := s.env
	s.env = nil
	return env.close()
}

// load starts a fresh server and loads the corpus into it.
func (s *serveRun) load(c *runConfig) error {
	s.in = syntheticCorpus(c.seed, c.sz.serveRecords)
	s.content = make([]int, len(s.in.texts))
	var err error
	if s.env, err = startServe(c.seed); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for g := 0; g < serveClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			for i := g; i < len(s.in.texts); i += serveClients {
				s.content[i] = i
				rec := client.Record{Text: s.in.texts[i], Entity: s.in.labels[i]}
				if _, err := s.env.cl.PutRecord(ctx, serveCollection, recordID(i), rec); err != nil {
					errs[g] = fmt.Errorf("loading record %d: %w", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_, err = s.env.resolve(ctx)
	return err
}

// cycle is one client's four upserts and one resolve. Client g owns the
// records with i%serveClients == g, so the clients never race on a record
// and the expected final state is known. A traced cycle records a span
// around each call.
func (s *serveRun) cycle(tr *tracer, rng *rand.Rand, g int, log *clientLog) error {
	n := len(s.in.texts)
	op, root := 0, 0
	if tr != nil {
		op = tr.newOp()
		root = tr.begin(op, 0, "op.cycle")
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	for k := 0; k < putsPerCycle; k++ {
		i := g + serveClients*rng.Intn((n-g+serveClients-1)/serveClients)
		donor := rng.Intn(n)
		rec := client.Record{Text: s.in.texts[donor], Entity: s.in.labels[donor]}
		id := 0
		if tr != nil {
			id = tr.begin(op, root, "client.put")
		}
		t := time.Now()
		_, err := s.env.cl.PutRecord(ctx, serveCollection, recordID(i), rec)
		log.puts = append(log.puts, msSince(t))
		if tr != nil {
			tr.end(id)
		}
		if err != nil {
			return fmt.Errorf("put: %w", err)
		}
		s.content[i] = donor
	}
	id := 0
	if tr != nil {
		id = tr.begin(op, root, "client.resolve")
	}
	t := time.Now()
	body, err := s.env.resolve(ctx)
	rms := msSince(t)
	if tr != nil {
		tr.end(id)
		tr.end(root)
	}
	if err != nil {
		return fmt.Errorf("resolve: %w", err)
	}
	log.resolves = append(log.resolves, rms)
	log.bodies = append(log.bodies, body)
	if tr != nil {
		log.traced = append(log.traced, msSince(start))
		log.tracedOps = append(log.tracedOps, op)
	} else {
		log.cycles = append(log.cycles, timing{ms: msSince(start), start: start, end: time.Now()})
	}
	return nil
}

// measure runs the closed loop, checks the outcome and reports.
func (s *serveRun) measure(c *runConfig, setups []timing) (*outcome, error) {
	o := newOutcome()
	callCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), requestTimeout)
	}
	ctx, cancel := callCtx()
	before, err := s.env.stats(ctx)
	cancel()
	if err != nil {
		return nil, err
	}
	retriesBefore := s.env.retries.Load()

	// The server keeps the last retainedJobs job results, so its heap grows
	// with every resolve until that history is full. Each client runs
	// enough cycles to fill it, so live_heap_mib reads the steady state
	// however fast the machine is.
	minCycles := max(c.minOps, retainedJobs/serveClients)

	// Each client runs one untimed warm-up cycle; the timed phase starts
	// for both at once when every warm-up is done. A client holds gate's
	// read lock for each cycle; a calibration block takes the write lock, so
	// it runs between cycles with both clients paused.
	logs := make([]clientLog, serveClients)
	var warm, done sync.WaitGroup
	var gate sync.RWMutex
	ready := make(chan struct{})
	for g := 0; g < serveClients; g++ {
		warm.Add(1)
		done.Add(1)
		go func(g int) {
			defer done.Done()
			rng := rand.New(rand.NewSource(c.seed*31 + int64(g)))
			log := &logs[g]
			log.err = s.cycle(nil, rng, g, &clientLog{})
			warm.Done()
			if log.err != nil {
				return
			}
			<-ready
			runCtx, stop := context.WithTimeout(context.Background(), c.window)
			defer stop()
			for i := 0; runCtx.Err() == nil || len(log.cycles)+len(log.traced) < minCycles; i++ {
				var tr *tracer
				if i%2 == 1 {
					tr = c.tr // nil on the untraced run
				}
				gate.RLock()
				log.err = s.cycle(tr, rng, g, log)
				gate.RUnlock()
				if log.err != nil {
					return
				}
			}
		}(g)
	}
	warm.Wait()
	mem := sampleMem()
	c.cal.block()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		c.cal.between(&gate, stop)
	}()
	close(ready)
	done.Wait()
	close(stop)
	<-stopped
	c.cal.block()

	var all clientLog
	for g := range logs {
		l := &logs[g]
		o.attempted += 1 + len(l.cycles) + len(l.traced)
		if l.err != nil {
			o.fail("client %d: %v", g, l.err)
			return o, nil
		}
		all.cycles = append(all.cycles, l.cycles...)
		all.traced = append(all.traced, l.traced...)
		all.puts = append(all.puts, l.puts...)
		all.resolves = append(all.resolves, l.resolves...)
		all.bodies = append(all.bodies, l.bodies...)
		all.tracedOps = append(all.tracedOps, l.tracedOps...)
	}
	cost := costSince(mem, len(all.cycles)+len(all.traced))
	ctx, cancel = callCtx()
	defer cancel()
	after, err := s.env.stats(ctx)
	if err != nil {
		return nil, err
	}
	final, err := s.check(ctx, c, o, before, after, len(all.puts)+serveClients*putsPerCycle)
	if err != nil {
		return nil, err
	}

	if c.tr == nil {
		o.endToEnd(c, setups, all.cycles, cost, final)
		o.metrics["live_heap_mib"] = c.liveHeapMiB()
		runtime.KeepAlive(s)
		return o, nil
	}
	var queue, run, overhead, mat, fuse []float64
	for k, b := range all.bodies {
		queue = append(queue, b.QueueWaitMs)
		run = append(run, b.RunMs)
		overhead = append(overhead, all.resolves[k]-b.QueueWaitMs-b.RunMs)
		mat = append(mat, b.stage("materialize"))
		fuse = append(fuse, b.stage("deltafuse"))
	}
	o.metrics["serve.queue_wait_ms_p50"] = median(queue)
	o.metrics["serve.run_ms_p50"] = median(run)
	o.metrics["serve.overhead_ms_p50"] = median(overhead)
	o.metrics["serve.materialize_ms_p50"] = median(mat)
	o.metrics["serve.deltafuse_ms_p50"] = median(fuse)
	o.metrics["serve.rejected"] = float64(after.Rejected - before.Rejected)
	o.metrics["serve.resolver_rebuilds"] = float64(after.Collections.ResolverRebuilds - before.Collections.ResolverRebuilds)
	o.metrics["client.retries"] = float64(s.env.retries.Load() - retriesBefore)
	o.metrics["serve.put_ms_p50"] = median(all.puts)
	o.metrics["serve.resolve_ms_p50"] = median(all.resolves)
	o.tailOf("serve.put", all.puts)
	o.tailOf("serve.resolve", all.resolves)
	o.tracedCommon(msOf(all.cycles), all.traced, c.tr.leafPerOp(all.tracedOps), cost)
	return o, nil
}

// check holds the server to what the clients did: every upsert applied
// exactly once, the stored records equal to what was written, and the
// served resolve equal to the library's on the same records. It returns
// the served F1.
func (s *serveRun) check(ctx context.Context, c *runConfig, o *outcome, before, after serve.Stats, puts int) (float64, error) {
	n := len(s.in.texts)
	// Exactly once: every acknowledged keyed upsert left one dedup entry
	// (tracked now or evicted since) and one journal record, and each
	// eviction journaled one more record.
	keys := func(st serve.Stats) int64 { return int64(st.Idempotency.TrackedKeys) + st.Idempotency.Evictions }
	o.check(keys(after)-keys(before) == int64(puts), "%d keyed upserts acknowledged but the dedup table gained %d keys", puts, keys(after)-keys(before))
	o.check(after.Idempotency.Conflicts == before.Idempotency.Conflicts, "idempotency conflicts during the run")
	if after.Durability != nil && before.Durability != nil && after.Durability.WAL != nil && before.Durability.WAL != nil {
		appends := after.Durability.WAL.Appends - before.Durability.WAL.Appends
		evictions := after.Idempotency.Evictions - before.Idempotency.Evictions
		o.check(appends == int64(puts)+evictions, "journal gained %d records for %d upserts and %d evictions", appends, puts, evictions)
	} else {
		o.fail("stats carry no journal counters")
	}
	o.check(after.Collections.Records == n, "server holds %d records, want %d", after.Collections.Records, n)

	recs, err := s.env.cl.GetCollection(ctx, serveCollection)
	if err != nil {
		return 0, fmt.Errorf("listing collection: %w", err)
	}
	o.check(len(recs) == n, "collection lists %d records, want %d", len(recs), n)
	mismatched := 0
	for _, r := range recs {
		i, err := strconv.Atoi(strings.TrimPrefix(r.ID, "r"))
		if err != nil || i < 0 || i >= n || r.Text != s.in.texts[s.content[i]] || r.Entity != s.in.labels[s.content[i]] {
			mismatched++
		}
	}
	o.check(mismatched == 0, "%d stored records differ from what the clients wrote", mismatched)

	final, err := s.env.resolve(ctx)
	if err != nil {
		return 0, fmt.Errorf("final resolve: %w", err)
	}
	col, err := er.NewCollection(er.DefaultOptions())
	if err != nil {
		return 0, fmt.Errorf("new collection: %w", err)
	}
	for i, donor := range s.content {
		col.Upsert(recordID(i), er.Record{Text: s.in.texts[donor], Entity: s.in.labels[donor]})
	}
	want, err := col.Resolve()
	if err != nil {
		return 0, fmt.Errorf("reference resolve: %w", err)
	}
	f1 := final.Evaluation.F1
	o.check(final.Matches == len(want.Matches) && final.Clusters == len(want.Clusters) && f1 == want.Evaluation.F1,
		"served resolve (%d matches, %d clusters, F1 %.6f) differs from the library's (%d, %d, %.6f)",
		final.Matches, final.Clusters, f1, len(want.Matches), len(want.Clusters), want.Evaluation.F1)
	floor := floorF1(c, "serve")
	o.check(f1 >= floor, "serve F1 %.4f below floor %.4f", f1, floor)
	return f1, nil
}
