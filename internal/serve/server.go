package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	er "repro"
	"repro/internal/guard"
	"repro/internal/wal"
)

// ErrDraining marks work refused or canceled because the server is
// shutting down. Handlers map it to 503 so load balancers retry elsewhere,
// distinguishing it from a client's own cancellation (499).
var ErrDraining = errors.New("serve: server is draining")

// Server is the resolution daemon: a bounded admission queue feeding a
// fixed worker pool, with per-class circuit breaking and graceful drain.
// Create with New, expose via Handler, stop with Shutdown.
type Server struct {
	opts Options

	queue       chan *job
	workers     sync.WaitGroup
	stopWorkers chan struct{}

	// inflight tracks every admitted job from queue entry to terminal
	// state; Shutdown drains it under the drain budget.
	inflight guard.Tracker

	// baseCtx parents every job context; kill cancels it with ErrDraining
	// when the drain budget expires.
	baseCtx context.Context
	kill    context.CancelCauseFunc

	breaker  *breaker
	jobs     *store
	draining atomic.Bool
	seq      atomic.Int64

	// cols is the durable-collections state; walLog its journal (nil when
	// DataDir is unset). walLog is written by the recovery goroutine
	// before recovery.phase flips to ready and read by handlers only after
	// they observe that phase.
	cols     *colStore
	walLog   *wal.Log
	recovery recoveryState

	// snapshots shares pre-matching artifacts across jobs on the same
	// dataset (nil when Options.SnapshotCache is negative).
	snapshots *er.SnapshotCache

	c        counters
	queueLat *latencyRing
	runLat   *latencyRing
	totalLat *latencyRing
	stages   *stageTotals

	shutdownOnce sync.Once
	shutdownErr  error
}

// New validates opts, builds a server and starts its worker pool. With a
// DataDir it also launches the background recovery that replays the
// durable-collections journal; /readyz reports 503 until the replay
// finishes. The caller owns the lifecycle: serve HTTP through Handler and
// stop with Shutdown.
func New(opts Options) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	base, kill := context.WithCancelCause(context.Background())
	s := &Server{
		opts:        o,
		queue:       make(chan *job, o.QueueDepth),
		stopWorkers: make(chan struct{}),
		baseCtx:     base,
		kill:        kill,
		breaker:     newBreaker(o.BreakerThreshold, o.BreakerCooldown, breakerMaxCooldown, o.Clock, newEqualJitter()),
		jobs:        newStore(o.RetainedJobs),
		cols:        newColStore(o.DedupCapacity),
		queueLat:    newLatencyRing(),
		runLat:      newLatencyRing(),
		totalLat:    newLatencyRing(),
		stages:      newStageTotals(),
	}
	if o.SnapshotCache > 0 {
		s.snapshots = er.NewSnapshotCache(o.SnapshotCache)
	}
	if o.DataDir != "" {
		s.startRecovery()
	}
	for i := 0; i < o.MaxConcurrency; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// httpError is an admission-path rejection: status plus machine-readable
// kind, before a job ever exists.
type httpError struct {
	status     int
	kind       string
	message    string
	retryAfter time.Duration
}

// submit runs admission control for one request: acquire an in-flight
// slot, re-check draining (the order makes the drain race-free: Shutdown
// sets draining before it starts waiting, so any slot acquired after the
// drain observed idle self-rejects here), build the isolated job context,
// and fast-fail with 429 when the queue is full. On success the returned
// job is queued and its release function transferred to the caller.
func (s *Server) submit(reqCtx context.Context, class string, d *er.Dataset, opts er.Options, probe bool, run func(ctx context.Context) (*er.Result, error)) (*job, func(), *httpError) {
	release := s.inflight.Acquire()
	if s.draining.Load() {
		release()
		s.c.unavailable.Add(1)
		return nil, nil, &httpError{
			status:     http.StatusServiceUnavailable,
			kind:       "draining",
			message:    ErrDraining.Error(),
			retryAfter: unavailableRetryAfter,
		}
	}

	// Per-request isolation: the job context derives from baseCtx (so the
	// drain kill reaches it), is linked to the client's request context (a
	// gone client cancels the job), and carries the per-job deadline with
	// ErrBudgetExceeded as its cause so expiry maps to 504 via the
	// taxonomy. The deadline clock starts at admission: queue wait counts
	// against it, which is what makes stale queued work sheddable.
	jctx, cancel := context.WithCancelCause(s.baseCtx)
	unlink := context.AfterFunc(reqCtx, func() { cancel(context.Canceled) })
	dctx, dcancel := context.WithTimeoutCause(jctx, s.opts.JobTimeout, er.ErrBudgetExceeded)

	j := &job{
		id:         "job-" + strconv.FormatInt(s.seq.Add(1), 10),
		class:      class,
		dataset:    d,
		opts:       opts,
		probe:      probe,
		run:        run,
		ctx:        dctx,
		cancel:     cancel,
		enqueuedAt: s.opts.Clock(),
		done:       make(chan struct{}),
		state:      JobQueued,
	}
	j.cleanup = func() {
		unlink()
		dcancel()
		cancel(nil)
	}

	select {
	case s.queue <- j:
		s.c.admitted.Add(1)
		s.jobs.add(j)
		// runJob owns j.cleanup once the job is queued.
		return j, release, nil
	default:
		j.cleanup()
		release()
		s.c.rejected.Add(1)
		return nil, nil, &httpError{
			status:     http.StatusTooManyRequests,
			kind:       "queue_full",
			message:    fmt.Sprintf("serve: admission queue full (%d queued, %d running)", len(s.queue), s.c.running.Load()),
			retryAfter: unavailableRetryAfter,
		}
	}
}

// worker consumes the queue until stopWorkers closes, then sheds whatever
// is left (possible only after a hard drain kill, when every leftover
// context is already canceled).
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case j := <-s.queue:
			s.runJob(j)
		case <-s.stopWorkers:
			for {
				select {
				case j := <-s.queue:
					s.runJob(j)
				default:
					return
				}
			}
		}
	}
}

// runJob executes one dequeued job with full fault containment: shed if
// its deadline can no longer be met (or drain canceled it while queued),
// recover panics into ErrInternal, classify the outcome for the circuit
// breaker, and record per-stage latencies. It always closes j.done — the
// waiting handler's single terminal signal.
func (s *Server) runJob(j *job) {
	defer close(j.done)
	defer j.cleanup()
	start := s.opts.Clock()
	queueWait := start.Sub(j.enqueuedAt)
	s.queueLat.add(queueWait)

	// Load shedding: a queued job whose context is already done — deadline
	// expired while waiting, client gone, or drain kill — cannot meet its
	// deadline anymore; answering immediately is cheaper for everyone than
	// running a doomed resolution.
	if err := j.ctx.Err(); err != nil {
		cause := context.Cause(j.ctx)
		if cause == nil {
			cause = err
		}
		j.mu.Lock()
		j.state = JobShed
		j.err = fmt.Errorf("serve: job %s shed before running: %w", j.id, cause)
		j.queueWait = queueWait
		j.mu.Unlock()
		s.c.shed.Add(1)
		s.breaker.onNeutral(j.class)
		s.opts.Logf("serve: %s class=%s shed after %s queued: %v", j.id, j.class, queueWait, cause)
		return
	}

	j.setState(JobRunning)
	s.c.running.Add(1)
	// Per-job worker budget: a client request below the budget is honored
	// (results are worker-count-invariant), anything else — including the
	// "use the machine" zero — is clamped to WorkersPerJob so a full worker
	// pool cannot oversubscribe the CPUs.
	if j.opts.Workers <= 0 || j.opts.Workers > s.opts.WorkersPerJob {
		j.opts.Workers = s.opts.WorkersPerJob
	}
	// Snapshot reuse: every job resolves through the shared cache, so a
	// second job on the same dataset skips tokenization and blocking (its
	// trace reports those stages as cached).
	if j.opts.Snapshots == nil {
		j.opts.Snapshots = s.snapshots
	}
	var res *er.Result
	var err error
	func() {
		// The isolation boundary: a panic anywhere in the job — the
		// pipeline's own recovery should catch library bugs first, but
		// chaos runners and future handler code land here too — becomes a
		// structured ErrInternal instead of a dead process.
		defer func() {
			if r := recover(); r != nil {
				s.c.panics.Add(1)
				res, err = nil, fmt.Errorf("%w: recovered job panic: %v", er.ErrInternal, r)
			}
		}()
		if j.run != nil {
			res, err = j.run(j.ctx)
		} else {
			res, err = s.opts.Runner(j.ctx, j.dataset, j.opts)
		}
	}()
	s.c.running.Add(-1)
	end := s.opts.Clock()
	runTime := end.Sub(start)
	s.runLat.add(runTime)
	s.totalLat.add(end.Sub(j.enqueuedAt))

	// A job canceled by the drain kill reports 503 (retry elsewhere), not
	// the client-cancellation 499 it would otherwise map to.
	if err != nil && errors.Is(err, context.Canceled) {
		if cause := context.Cause(j.ctx); errors.Is(cause, ErrDraining) {
			err = fmt.Errorf("%w: %w", ErrDraining, err)
		}
	}

	j.mu.Lock()
	j.queueWait = queueWait
	j.runTime = runTime
	j.result = res
	j.err = err
	if err == nil {
		j.state = JobCompleted
	} else {
		j.state = JobFailed
	}
	j.mu.Unlock()

	if err == nil {
		if res != nil {
			s.stages.record(res.Trace)
		}
		s.c.completed.Add(1)
		s.breaker.onSuccess(j.class)
		s.opts.Logf("serve: %s class=%s completed in %s (queue %s)", j.id, j.class, runTime, queueWait)
		return
	}
	s.c.failed.Add(1)
	if serverFault(err) {
		if s.breaker.onFailure(j.class) {
			s.opts.Logf("serve: breaker tripped for class=%s after %s: %v", j.class, j.id, err)
		}
	} else {
		s.breaker.onNeutral(j.class)
	}
	s.opts.Logf("serve: %s class=%s failed in %s: %v", j.id, j.class, runTime, err)
}

// serverFault reports whether an error indicts the server rather than the
// request: internal bugs, panics and blown budgets count against the
// circuit breaker; malformed requests and client cancellations do not.
func serverFault(err error) bool {
	switch {
	case errors.Is(err, er.ErrInvalidOptions),
		errors.Is(err, er.ErrBadData),
		errors.Is(err, er.ErrNoRecords),
		errors.Is(err, er.ErrNoCandidates):
		return false
	case errors.Is(err, ErrDraining), errors.Is(err, context.Canceled):
		return false
	default:
		return true
	}
}

// statusFor maps a terminal job error onto its HTTP status: drain
// cancellations are 503 (retryable elsewhere), everything else follows the
// er.HTTPStatus taxonomy table.
func statusFor(err error) int {
	if errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	return er.HTTPStatus(err)
}

// Draining reports whether admission has been stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown gracefully drains the server: admission stops immediately
// (readyz flips, new jobs get 503), in-flight jobs get DrainBudget to
// finish, stragglers are then hard-canceled with ErrDraining, and the
// worker pool exits. ctx bounds the whole call; a context that expires
// before the stragglers acknowledge cancellation yields an error and may
// leak the stuck workers (nothing else waits on them). Shutdown is
// idempotent: later calls return the first outcome.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.draining.Store(true)
		s.opts.Logf("serve: draining: %d in flight, budget %s", s.inflight.InFlight(), s.opts.DrainBudget)
		budgetCtx, cancel := context.WithTimeout(ctx, s.opts.DrainBudget)
		drained := s.inflight.Drain(budgetCtx)
		cancel()
		if !drained {
			s.opts.Logf("serve: drain budget exhausted with %d in flight; canceling stragglers", s.inflight.InFlight())
			s.kill(ErrDraining)
			drained = s.inflight.Drain(ctx)
		}
		close(s.stopWorkers)
		if drained {
			s.workers.Wait()
		} else {
			s.shutdownErr = fmt.Errorf("serve: drain incomplete: %w", ErrDraining)
		}
		// Idempotent: releases baseCtx resources on the clean path too.
		s.kill(ErrDraining)
		// With the drain done no mutation is in flight, so the final
		// snapshot captures a quiesced state.
		s.finishDurability()
		s.opts.Logf("serve: drained (complete=%v)", drained)
	})
	return s.shutdownErr
}

// Stats snapshots the server's counters, gauges, latency quantiles and
// breaker classes.
func (s *Server) Stats() Stats {
	colCount, recCount := s.cols.counts()
	return Stats{
		QueueDepth:     len(s.queue),
		QueueCapacity:  cap(s.queue),
		InFlight:       s.inflight.InFlight(),
		Running:        s.c.running.Load(),
		Draining:       s.draining.Load(),
		Admitted:       s.c.admitted.Load(),
		Completed:      s.c.completed.Load(),
		Failed:         s.c.failed.Load(),
		Shed:           s.c.shed.Load(),
		Rejected:       s.c.rejected.Load(),
		BreakerTripped: s.c.tripped.Load(),
		Unavailable:    s.c.unavailable.Load(),
		Panics:         s.c.panics.Load(),
		QueueLatency:   s.queueLat.quantiles(),
		RunLatency:     s.runLat.quantiles(),
		TotalLatency:   s.totalLat.quantiles(),
		Breakers:       s.breaker.snapshot(),
		Stages:         s.stages.snapshot(),
		SnapshotCache:  snapshotCacheStats(s.snapshots),
		Collections: CollectionsStats{
			Collections:      colCount,
			Records:          recCount,
			DeltaResolves:    s.c.deltaResolves.Load(),
			ResolverRebuilds: s.c.resolverRebuilds.Load(),
		},
		Idempotency: s.cols.idempotencyStats(),
		Durability:  s.durabilityStats(),
	}
}
