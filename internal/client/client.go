// Package client is the retrying HTTP client for erserve: exponential
// backoff with full jitter, Retry-After honoring, per-attempt and overall
// deadline propagation, and automatic idempotency keys on every mutation —
// so a retried PUT/DELETE is applied exactly once no matter how many
// connections drop or how often the server restarts mid-request.
//
// The retry policy is deliberately narrow: transport errors and the
// transient statuses (429 queue-full, 502, 503 draining/recovering/breaker)
// are retried; everything else — including 504, which reports the job's own
// budget deterministically elapsing — is returned immediately, mapped onto
// the er error taxonomy via SentinelFor so callers branch with errors.Is.
//
// Every attempt finishes its response body (reads what remains up to a
// small cap, then closes it), so sequential calls on one Client reuse one
// keep-alive connection instead of dialing per mutation.
package client

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	er "repro"
)

// Default values selected by zero Options fields.
const (
	// DefaultMaxAttempts is the per-call attempt budget selected by a zero
	// Options.MaxAttempts: one initial try plus four retries.
	DefaultMaxAttempts = 5
	// DefaultBaseBackoff is the first backoff ceiling selected by a zero
	// Options.BaseBackoff.
	DefaultBaseBackoff = 100 * time.Millisecond
	// DefaultMaxBackoff caps the exponential ceiling, selected by a zero
	// Options.MaxBackoff.
	DefaultMaxBackoff = 5 * time.Second
	// DefaultAttemptTimeout is the per-attempt deadline selected by a zero
	// Options.AttemptTimeout. It bounds how long one hung connection can
	// eat before the next retry; the caller's context bounds the whole
	// call.
	DefaultAttemptTimeout = 30 * time.Second
	// maxErrorBody caps how much of an error response body is read when
	// decoding the server's structured error.
	maxErrorBody = 1 << 20
	// maxDrainBody caps how much of a response body is read and discarded
	// after the attempt is done with it, so the transport can reuse the
	// connection. A longer remainder closes the connection instead.
	maxDrainBody = 64 << 10
)

// Options configures a Client. The zero value of every field except
// BaseURL selects a documented default; BaseURL is required.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". Required.
	BaseURL string
	// HTTPClient is the transport. Nil selects a plain &http.Client{} —
	// deliberately without its own Timeout, because AttemptTimeout and the
	// caller's context govern deadlines.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per logical call (first attempt included).
	// Zero selects DefaultMaxAttempts; 1 disables retries; negative is
	// invalid.
	MaxAttempts int
	// BaseBackoff is the ceiling of the first retry's full-jitter sleep;
	// each further retry doubles the ceiling up to MaxBackoff. Zero selects
	// DefaultBaseBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling. Zero selects DefaultMaxBackoff.
	MaxBackoff time.Duration
	// AttemptTimeout is each attempt's own deadline, layered under the
	// caller's context. Zero selects DefaultAttemptTimeout; negative
	// disables the per-attempt layer entirely.
	AttemptTimeout time.Duration
	// Rand injects the jitter source so tests can pin sleeps. Nil seeds a
	// private source from crypto/rand — distinct clients must not jitter in
	// lockstep, which is the whole point of jitter.
	Rand *rand.Rand
	// Logf receives one line per retry decision. Nil discards logs.
	Logf func(format string, args ...any)
}

// Validate reports the first configuration error, or nil, wrapping
// er.ErrInvalidOptions per the repo convention.
func (o Options) Validate() error {
	switch {
	case o.BaseURL == "":
		return fmt.Errorf("%w: client: BaseURL must be set", er.ErrInvalidOptions)
	case o.MaxAttempts < 0:
		return fmt.Errorf("%w: client: MaxAttempts must be >= 0, got %d", er.ErrInvalidOptions, o.MaxAttempts)
	case o.BaseBackoff < 0:
		return fmt.Errorf("%w: client: BaseBackoff must be >= 0, got %s", er.ErrInvalidOptions, o.BaseBackoff)
	case o.MaxBackoff < 0:
		return fmt.Errorf("%w: client: MaxBackoff must be >= 0, got %s", er.ErrInvalidOptions, o.MaxBackoff)
	}
	if _, err := url.Parse(o.BaseURL); err != nil {
		return fmt.Errorf("%w: client: BaseURL: %v", er.ErrInvalidOptions, err)
	}
	return nil
}

// withDefaults returns a copy with every zero field resolved.
func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = DefaultBaseBackoff
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.AttemptTimeout == 0 {
		o.AttemptTimeout = DefaultAttemptTimeout
	}
	if o.Rand == nil {
		var seed [8]byte
		_, _ = crand.Read(seed[:]) // an all-zero fallback seed still jitters
		var s int64
		for _, b := range seed {
			s = s<<8 | int64(b)
		}
		o.Rand = rand.New(rand.NewSource(s))
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Client is a retrying erserve client. Create with New; safe for
// concurrent use.
type Client struct {
	opts Options

	mu  sync.Mutex // guards rng (rand.Rand is not thread-safe)
	rng *rand.Rand
}

// New validates opts and builds a client.
func New(opts Options) (*Client, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	return &Client{opts: o, rng: o.Rand}, nil
}

// Record is the wire form of one collection record.
type Record struct {
	ID     string `json:"id,omitempty"`
	Entity string `json:"entity,omitempty"`
	Source int    `json:"source,omitempty"`
	Text   string `json:"text"`
}

// CollectionInfo is the wire form of one collection in a listing.
type CollectionInfo struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
}

// ResolveResult is the subset of a terminal job response callers usually
// branch on; Raw retains the full body for anything else.
type ResolveResult struct {
	JobID    string          `json:"job_id"`
	State    string          `json:"state"`
	Matches  int             `json:"matches"`
	Clusters int             `json:"clusters"`
	Raw      json.RawMessage `json:"-"`
}

// Outcome reports how a mutation call concluded: Replayed is true when the
// server answered from its idempotency journal instead of applying again —
// i.e. an earlier attempt (possibly on a dropped connection) already did
// the work.
type Outcome struct {
	Replayed bool
}

// CreateCollection creates a named collection (exactly-once under retries).
func (c *Client) CreateCollection(ctx context.Context, name string) (Outcome, error) {
	body, err := json.Marshal(map[string]string{"name": name})
	if err != nil {
		return Outcome{}, fmt.Errorf("%w: client: encoding request: %v", er.ErrInvalidOptions, err)
	}
	return c.mutate(ctx, http.MethodPost, "/collections", body, nil)
}

// DropCollection deletes a collection and its records.
func (c *Client) DropCollection(ctx context.Context, name string) (Outcome, error) {
	return c.mutate(ctx, http.MethodDelete, "/collections/"+url.PathEscape(name), nil, nil)
}

// PutRecord upserts one record.
func (c *Client) PutRecord(ctx context.Context, collection, id string, rec Record) (Outcome, error) {
	rec.ID = "" // the ID travels in the path
	body, err := json.Marshal(rec)
	if err != nil {
		return Outcome{}, fmt.Errorf("%w: client: encoding request: %v", er.ErrInvalidOptions, err)
	}
	path := "/collections/" + url.PathEscape(collection) + "/records/" + url.PathEscape(id)
	return c.mutate(ctx, http.MethodPut, path, body, nil)
}

// DeleteRecord deletes one record.
func (c *Client) DeleteRecord(ctx context.Context, collection, id string) (Outcome, error) {
	path := "/collections/" + url.PathEscape(collection) + "/records/" + url.PathEscape(id)
	return c.mutate(ctx, http.MethodDelete, path, nil, nil)
}

// ListCollections lists every collection.
func (c *Client) ListCollections(ctx context.Context) ([]CollectionInfo, error) {
	var out struct {
		Collections []CollectionInfo `json:"collections"`
	}
	_, err := c.do(ctx, http.MethodGet, "/collections", nil, "", &out)
	return out.Collections, err
}

// GetCollection lists one collection's records.
func (c *Client) GetCollection(ctx context.Context, name string) ([]Record, error) {
	var out struct {
		Records []Record `json:"records"`
	}
	_, err := c.do(ctx, http.MethodGet, "/collections/"+url.PathEscape(name), nil, "", &out)
	return out.Records, err
}

// Resolve resolves a collection's full corpus. Resolution is read-only on
// the server, so it retries like any idempotent request but sends no key.
func (c *Client) Resolve(ctx context.Context, collection string) (*ResolveResult, error) {
	var raw json.RawMessage
	path := "/collections/" + url.PathEscape(collection) + "/resolve"
	if _, err := c.do(ctx, http.MethodPost, path, nil, "", &raw); err != nil {
		return nil, err
	}
	res := &ResolveResult{Raw: raw}
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, fmt.Errorf("%w: client: decoding resolve response: %v", er.ErrBadData, err)
	}
	return res, nil
}

// Ready probes /readyz: nil means the server is accepting work.
func (c *Client) Ready(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/readyz", nil, "", nil)
	return err
}

// Stats fetches the /stats snapshot as raw JSON.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	var raw json.RawMessage
	_, err := c.do(ctx, http.MethodGet, "/stats", nil, "", &raw)
	return raw, err
}

// mutate runs one state-changing call with a fresh idempotency key held
// constant across every retry of this logical request — the contract that
// lets the server collapse duplicates.
func (c *Client) mutate(ctx context.Context, method, path string, body []byte, out any) (Outcome, error) {
	key, err := newIdempotencyKey(c)
	if err != nil {
		return Outcome{}, err
	}
	replayed, err := c.do(ctx, method, path, body, key, out)
	return Outcome{Replayed: replayed}, err
}

// newIdempotencyKey draws 16 random bytes (crypto/rand, falling back to
// the client's seeded source if the platform's entropy read fails) as hex.
func newIdempotencyKey(c *Client) (string, error) {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		c.mu.Lock()
		for i := range b {
			b[i] = byte(c.rng.Intn(256))
		}
		c.mu.Unlock()
	}
	return hex.EncodeToString(b[:]), nil
}

// do is the retry loop shared by every call. It rebuilds the request body
// each attempt (a consumed reader cannot be resent), layers the per-attempt
// timeout under the caller's context, and classifies each failure as
// retryable (transport error, 429/502/503 — sleeping with full jitter,
// floored by the server's Retry-After) or terminal (returned immediately as
// an *APIError wrapping the taxonomy sentinel). The bool result reports
// whether the server marked the response Idempotency-Replayed.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idemKey string, out any) (bool, error) {
	var (
		lastErr    error
		retryAfter time.Duration
	)
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			d := c.backoff(attempt-1, retryAfter)
			c.opts.Logf("client: retrying %s %s in %s (attempt %d/%d): %v",
				method, path, d, attempt, c.opts.MaxAttempts, lastErr)
			if err := sleep(ctx, d); err != nil {
				return false, err
			}
		}
		replayed, retry, ra, err := c.attempt(ctx, method, path, body, idemKey, out)
		if err == nil {
			return replayed, nil
		}
		if !retry || attempt == c.opts.MaxAttempts {
			return false, err
		}
		// The caller's context ending is terminal no matter how the attempt
		// failed — its cancellation is indistinguishable from (and often the
		// cause of) a transport error on the in-flight request.
		if cerr := ctx.Err(); cerr != nil {
			return false, fmt.Errorf("client: %s %s: %w", method, path, context.Cause(ctx))
		}
		lastErr, retryAfter = err, ra
	}
	return false, lastErr
}

// attempt runs one HTTP exchange. retry reports whether the failure class
// is worth another attempt; ra carries the server's Retry-After wish.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, idemKey string, out any) (replayed, retry bool, ra time.Duration, err error) {
	actx := ctx
	cancel := func() {}
	if c.opts.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.opts.AttemptTimeout)
	}
	defer cancel()
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.opts.BaseURL+path, rd)
	if err != nil {
		return false, false, 0, fmt.Errorf("%w: client: building request: %v", er.ErrInvalidOptions, err)
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		// Transport failure: connection refused, reset, cut mid-request,
		// attempt timeout. All retryable — the idempotency key makes the
		// ambiguous ones (request sent, response lost) safe to resend.
		return false, true, 0, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	// Registered after cancel, so it runs first: the drain reads under the
	// attempt's deadline.
	defer finish(resp.Body)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return false, false, 0, fmt.Errorf("%w: client: decoding %s %s response: %v", er.ErrBadData, method, path, err)
			}
		}
		return resp.Header.Get("Idempotency-Replayed") == "true", false, 0, nil
	}
	apiErr := &APIError{Status: resp.StatusCode}
	var wire struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if raw, rerr := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody)); rerr == nil {
		if jerr := json.Unmarshal(raw, &wire); jerr == nil {
			apiErr.Kind, apiErr.Message = wire.Kind, wire.Error
		}
	}
	return false, retryableStatus(resp.StatusCode), parseRetryAfter(resp.Header), apiErr
}

// finish reads what remains of a response body, up to maxDrainBody, and
// closes it. A body read to its end lets the transport put the connection
// back in its idle pool for the next call. A longer remainder, or a read
// error (the attempt's deadline ending a stalled body among them), closes
// the connection instead, and the next attempt dials.
func finish(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, maxDrainBody+1)
	_ = body.Close()
}

// backoff draws the sleep before retry number `retries`: full jitter over
// an exponentially growing ceiling (uniform in [0, min(MaxBackoff,
// BaseBackoff·2^(retries-1))]), floored by the server's Retry-After. Full
// jitter over equal or no jitter: a thundering herd that failed together
// must not come back together.
func (c *Client) backoff(retries int, retryAfter time.Duration) time.Duration {
	ceiling := c.opts.BaseBackoff << (retries - 1)
	if ceiling <= 0 || ceiling > c.opts.MaxBackoff {
		ceiling = c.opts.MaxBackoff
	}
	var d time.Duration
	if ceiling > 0 {
		c.mu.Lock()
		d = time.Duration(c.rng.Int63n(int64(ceiling) + 1))
		c.mu.Unlock()
	}
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form erserve emits; HTTP-date would need a wall clock).
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleep waits d or until ctx ends, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("client: retry wait aborted: %w", context.Cause(ctx))
	}
}
