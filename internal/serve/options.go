// Package serve implements the long-running resolution daemon behind
// cmd/erserve: a bounded-admission job queue feeding a fixed worker pool,
// per-request isolation (own context deadline, panic containment), a
// per-class circuit breaker with half-open probing and exponential backoff,
// and graceful drain with a bounded budget. The package exists so the
// hardened execution layer of the core library (guard checkpoints, budgets,
// the error taxonomy) has a host that actually exercises it under load:
// every job runs through er.ResolveContext with its own deadline, and every
// failure mode — overload, deadline, panic, shutdown — maps to a documented
// HTTP status via er.HTTPStatus.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"time"

	er "repro"
	"repro/internal/clock"
	"repro/internal/wal"
)

// Default values selected by the zero Options fields.
const (
	// DefaultMaxConcurrency is the worker-pool size selected by a zero
	// Options.MaxConcurrency.
	DefaultMaxConcurrency = 2
	// DefaultQueueDepth is the admission-queue capacity selected by a zero
	// Options.QueueDepth.
	DefaultQueueDepth = 16
	// DefaultJobTimeout is the per-job deadline selected by a zero
	// Options.JobTimeout.
	DefaultJobTimeout = 60 * time.Second
	// DefaultDrainBudget is the graceful-drain budget selected by a zero
	// Options.DrainBudget.
	DefaultDrainBudget = 15 * time.Second
	// DefaultMaxUploadBytes is the CSV upload cap selected by a zero
	// Options.MaxUploadBytes.
	DefaultMaxUploadBytes = 16 << 20
	// DefaultBreakerThreshold is the consecutive-failure trip point
	// selected by a zero Options.BreakerThreshold.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is the first open interval selected by a zero
	// Options.BreakerCooldown.
	DefaultBreakerCooldown = 5 * time.Second
	// DefaultRetainedJobs is the terminal-job history size selected by a
	// zero Options.RetainedJobs.
	DefaultRetainedJobs = 256
	// DefaultSnapshotCache is the snapshot-cache capacity selected by a
	// zero Options.SnapshotCache.
	DefaultSnapshotCache = 16
	// DefaultDedupCapacity is the idempotency dedup-table bound selected by
	// a zero Options.DedupCapacity.
	DefaultDedupCapacity = 4096
)

// Fixed server parameters that no deployment has needed to tune.
const (
	// breakerMaxCooldown caps a tripped class's exponential backoff
	// between half-open probes.
	breakerMaxCooldown = 2 * time.Minute
	// latencyWindow is the number of recent samples each latency stage
	// keeps for the /stats quantiles.
	latencyWindow = 512
)

// Options configures a Server. The zero value is valid: every field's zero
// selects the documented default, so embedding callers configure only what
// they care about.
type Options struct {
	// MaxConcurrency is the number of jobs resolved in parallel (the worker
	// pool size). Zero selects DefaultMaxConcurrency.
	MaxConcurrency int
	// WorkersPerJob is each job's kernel-goroutine budget (er.Options.
	// Workers): the ceiling applied to whatever the client requests, and
	// the value used when the client requests nothing. Zero derives the
	// budget from the machine: GOMAXPROCS / MaxConcurrency, floored at 1,
	// so a fully loaded worker pool does not oversubscribe the CPUs.
	WorkersPerJob int
	// QueueDepth bounds the jobs admitted but not yet running. A full queue
	// fast-fails new work with 429. Zero selects DefaultQueueDepth.
	QueueDepth int
	// JobTimeout is the per-job wall-clock deadline, measured from
	// admission (queue wait counts against it, which is what makes queued
	// work sheddable). Zero selects DefaultJobTimeout.
	JobTimeout time.Duration
	// DrainBudget is how long Shutdown lets in-flight jobs finish before
	// hard-canceling the stragglers. Zero selects DefaultDrainBudget.
	DrainBudget time.Duration
	// MaxUploadBytes caps the size of an uploaded CSV body. Zero selects
	// DefaultMaxUploadBytes.
	MaxUploadBytes int64
	// BreakerThreshold is the number of consecutive server-side failures in
	// one job class that trips its circuit breaker. Zero selects
	// DefaultBreakerThreshold; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open interval before the first half-open
	// probe; each re-trip doubles it, up to 2 minutes. Zero selects
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// RetainedJobs bounds the terminal jobs kept for /jobs/{id} lookups.
	// Zero selects DefaultRetainedJobs.
	RetainedJobs int
	// SnapshotCache bounds the pre-matching snapshots (tokenized corpus +
	// blocked candidate graph, content-keyed by dataset and options) shared
	// across jobs, so repeated resolutions of the same dataset skip
	// tokenization and blocking; cached stages show up in job traces with
	// "cached". Zero selects DefaultSnapshotCache; negative disables reuse.
	SnapshotCache int
	// DedupCapacity bounds the idempotency dedup table: the number of
	// distinct Idempotency-Key values whose outcomes stay replayable. The
	// oldest keys are evicted (journaled, so replay agrees) once the bound
	// is exceeded — a retry arriving after its key was evicted is applied
	// as a fresh request, so size this above the worst-case number of
	// logical mutations a client could still be retrying. Zero selects
	// DefaultDedupCapacity; Validate rejects negative values.
	DedupCapacity int
	// DataDir is the directory holding the durable-collections journal
	// (write-ahead log segments and snapshots). Zero (empty) disables
	// durability: the collections API still works, but state lives only in
	// memory and dies with the process.
	DataDir string
	// FsyncInterval batches journal fsyncs (group commit): a mutation is
	// acknowledged at most this long after it was appended. Zero selects
	// the strictest mode — fsync on every mutation — so durability is the
	// default and batching is the opt-in. Negative is invalid, as is any
	// non-zero value without a DataDir; Validate rejects both.
	FsyncInterval time.Duration
	// MaxSegmentBytes is the journal segment size that triggers rotation.
	// Zero selects wal.DefaultMaxSegmentBytes. Negative is invalid, as is
	// any non-zero value without a DataDir; Validate rejects both.
	MaxSegmentBytes int64
	// WALFS injects the journal's filesystem. Nil selects the real one
	// (wal.OSFS); the fault suite injects a faultcheck.FaultFS. Ignored
	// without a DataDir.
	WALFS wal.FS
	// Clock injects the time source used for latency accounting and
	// breaker transitions. Nil selects the system clock; tests inject a
	// fake to make breaker timing deterministic.
	Clock clock.Func
	// Runner executes one resolution job. Nil selects er.ResolveContext;
	// the fault-injection suite substitutes panicking, stalling and
	// erroring runners to drive the isolation boundary.
	Runner func(ctx context.Context, d *er.Dataset, opts er.Options) (*er.Result, error)
	// Logf receives one line per lifecycle event (admission, completion,
	// trip, drain). Nil discards logs.
	Logf func(format string, args ...any)

	// runnerInjected records that a custom Runner was configured (set by
	// withDefaults). The delta-scoped collection resolve path bypasses the
	// Runner, so it is disabled when one was injected — the fault suites
	// substitute Runner to drive the job isolation boundary and must see
	// every job.
	runnerInjected bool
}

// Validate reports the first configuration error, or nil, wrapping
// er.ErrInvalidOptions so callers classify it with errors.Is. Only the
// durability knobs need validation — every other field's entire range is
// meaningful (zero selects a default, negatives select documented
// disable semantics).
func (o Options) Validate() error {
	switch {
	case o.FsyncInterval < 0:
		return fmt.Errorf("%w: serve: FsyncInterval must be >= 0, got %s", er.ErrInvalidOptions, o.FsyncInterval)
	case o.MaxSegmentBytes < 0:
		return fmt.Errorf("%w: serve: MaxSegmentBytes must be >= 0, got %d", er.ErrInvalidOptions, o.MaxSegmentBytes)
	case o.DataDir == "" && o.FsyncInterval != 0:
		return fmt.Errorf("%w: serve: FsyncInterval requires a DataDir", er.ErrInvalidOptions)
	case o.DataDir == "" && o.MaxSegmentBytes != 0:
		return fmt.Errorf("%w: serve: MaxSegmentBytes requires a DataDir", er.ErrInvalidOptions)
	case o.DedupCapacity < 0:
		return fmt.Errorf("%w: serve: DedupCapacity must be >= 0, got %d", er.ErrInvalidOptions, o.DedupCapacity)
	}
	return nil
}

// withDefaults returns a copy with every zero field resolved to its
// documented default.
func (o Options) withDefaults() Options {
	if o.MaxConcurrency <= 0 {
		o.MaxConcurrency = DefaultMaxConcurrency
	}
	if o.WorkersPerJob <= 0 {
		o.WorkersPerJob = runtime.GOMAXPROCS(0) / o.MaxConcurrency
		if o.WorkersPerJob < 1 {
			o.WorkersPerJob = 1
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = DefaultJobTimeout
	}
	if o.DrainBudget <= 0 {
		o.DrainBudget = DefaultDrainBudget
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.RetainedJobs <= 0 {
		o.RetainedJobs = DefaultRetainedJobs
	}
	if o.SnapshotCache == 0 {
		o.SnapshotCache = DefaultSnapshotCache
	}
	if o.DedupCapacity == 0 {
		o.DedupCapacity = DefaultDedupCapacity
	}
	o.Clock = clock.OrSystem(o.Clock)
	if o.Runner == nil {
		o.Runner = er.ResolveContext
	} else {
		o.runnerInjected = true
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}
