// Package tracing is the per-request observability layer the aggregate
// metrics of internal/telemetry cannot provide: lightweight in-process
// span trees carried through context.Context, so a single slow request
// can say *where* it spent its time — admission queue, cache miss, CH
// upward search, search kernel, or shortcut unpacking — rather
// than only moving a histogram bucket.
//
// The design has three rules:
//
//   - Zero-alloc no-op when disabled. Instrumentation sites call
//     Start(ctx, name) unconditionally; with no active trace in ctx the
//     call returns a nil *Span whose methods are all nil-safe no-ops and
//     performs no allocation. The warm-kernel benchmarks (make
//     bench-trace) hold the disabled overhead under 1% with 0 extra
//     allocations.
//
//   - Tail-based slow capture, head-sampled rest. When a Tracer is
//     enabled every request builds a span tree (the cost is a handful of
//     small allocations per request); at Finish, a trace slower than the
//     slow threshold is always captured, and the rest are kept only when
//     the deterministic head-sampling decision — a hash of the trace id
//     against the sample rate — said so at the start. A slow request can
//     therefore never escape capture because the sampler was unlucky.
//
//   - W3C trace context at the edges. The HTTP middleware ingests an
//     incoming traceparent header (so an upstream gateway's trace id
//     names our spans too) and echoes one carrying the root span id, so
//     a distributed trace stitches across the fleet.
//
// Completed traces land in fixed-size lock-striped ring buffers (recent
// and slow), exposed by the server as GET /v1/debug/traces and
// /v1/debug/traces/{id}. OpenMetrics exemplars on the latency histograms
// (telemetry.Histogram.ObserveExemplar) link a /metrics bucket to the
// trace id that landed in it.
package tracing

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a Tracer. A Tracer with neither SampleRate nor
// SlowThreshold set is disabled: no trace is ever started and the whole
// request path stays on the nil-span fast path.
type Config struct {
	// SampleRate is the head-sampling probability in [0, 1]: the fraction
	// of traces captured into the recent ring regardless of latency. The
	// decision is a deterministic function of the trace id, so one request
	// is either sampled at every hop or at none.
	SampleRate float64
	// SlowThreshold enables tail-based capture: every trace whose root
	// span runs at least this long is captured into the slow ring, whatever
	// the sampling decision. 0 disables slow capture.
	SlowThreshold time.Duration
	// Capacity is the number of completed traces each ring (recent and
	// slow) retains before evicting the oldest; 0 means 256.
	Capacity int
}

// Tracer owns the capture policy and the rings of completed traces. A
// nil *Tracer is valid and permanently disabled — every method is
// nil-safe, so callers thread one pointer without guarding.
type Tracer struct {
	sampleRate float64
	sampleCut  uint64 // sampleRate mapped onto the uint64 hash space
	slow       time.Duration
	recent     *ring
	slowRing   *ring
}

// New builds a Tracer from cfg.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Tracer{
		sampleRate: rate,
		sampleCut:  uint64(rate * float64(math.MaxUint64)),
		slow:       cfg.SlowThreshold,
		recent:     newRing(cfg.Capacity),
		slowRing:   newRing(cfg.Capacity),
	}
}

// Enabled reports whether this tracer captures anything at all.
func (t *Tracer) Enabled() bool {
	return t != nil && (t.sampleRate > 0 || t.slow > 0)
}

// SlowThreshold returns the tail-capture threshold (0 when disabled).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

// sampled is the deterministic head-sampling decision for a trace id:
// a hash of the id compared against the rate's share of the hash space.
// The same id always decides the same way, so one request is sampled at
// every hop or at none. FNV-1a alone leaves its high bits correlated
// for near-identical ids (a gateway minting sequential ones would be
// sampled all-or-nothing), so an avalanche finalizer spreads the
// decision bits.
func (t *Tracer) sampled(traceID string) bool {
	if t.sampleRate >= 1 {
		return true
	}
	if t.sampleRate <= 0 {
		return false
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(traceID); i++ {
		h ^= uint64(traceID[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h < t.sampleCut
}

// Trace is one request's span tree plus the capture metadata. All span
// mutation goes through mu, so concurrent children (the batch fan-out's
// worker pool) and debug-endpoint snapshots never race.
type Trace struct {
	id         string // 32 lowercase hex chars (W3C trace-id)
	rootSpanID string // 16 hex chars, minted here, echoed in traceparent
	upstream   string // parent span id from an incoming traceparent, "" if none
	sampled    bool

	mu   sync.Mutex
	root *Span
	slow atomic.Bool // set at Finish; read by the debug endpoints
}

// ID returns the trace id.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Root returns the root span (nil on a nil trace).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Sampled reports the head-sampling decision made at start.
func (tr *Trace) Sampled() bool { return tr != nil && tr.sampled }

// Traceparent renders the outgoing W3C traceparent header for this
// trace: our root span id as the parent-id, the sampled flag from the
// head-sampling decision.
func (tr *Trace) Traceparent() string {
	if tr == nil {
		return ""
	}
	return formatTraceparent(tr.id, tr.rootSpanID, tr.sampled)
}

// StartRequest begins a trace for one inbound request. traceparent is
// the raw incoming header ("" or malformed values mint a fresh trace
// id). The returned context carries the root span, so every
// tracing.Start below the middleware attaches to this tree. Returns
// (ctx, nil) when the tracer is disabled.
func (t *Tracer) StartRequest(ctx context.Context, name, traceparent string) (context.Context, *Trace) {
	if !t.Enabled() {
		return ctx, nil
	}
	traceID, upstream, ok := ParseTraceparent(traceparent)
	if !ok {
		traceID = newHexID(16)
	}
	tr := &Trace{
		id:         traceID,
		rootSpanID: newHexID(8),
		upstream:   upstream,
		sampled:    t.sampled(traceID),
	}
	tr.root = &Span{tr: tr, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, tr.root), tr
}

// Finish ends the trace's root span (if still open) and applies the
// capture policy: into the slow ring when the root ran past the slow
// threshold, into the recent ring when head-sampled. It reports whether
// the trace was captured at all — the caller links an exemplar to the
// latency histogram only for retrievable traces.
func (t *Tracer) Finish(tr *Trace) (captured bool) {
	if t == nil || tr == nil {
		return false
	}
	tr.mu.Lock()
	if tr.root.end.IsZero() {
		tr.root.end = time.Now()
	}
	d := tr.root.end.Sub(tr.root.start)
	tr.mu.Unlock()
	if t.slow > 0 && d >= t.slow {
		tr.slow.Store(true)
		t.slowRing.add(tr)
		captured = true
	}
	if tr.sampled {
		t.recent.add(tr)
		captured = true
	}
	return captured
}

// Get returns the snapshot of a captured trace by id.
func (t *Tracer) Get(id string) (Snapshot, bool) {
	if t == nil {
		return Snapshot{}, false
	}
	tr := t.slowRing.get(id)
	if tr == nil {
		tr = t.recent.get(id)
	}
	if tr == nil {
		return Snapshot{}, false
	}
	return tr.snapshot(), true
}

// Recent returns up to n captured traces, newest first.
func (t *Tracer) Recent(n int) []Summary {
	if t == nil {
		return nil
	}
	return summarize(t.recent.all(), n, func(a, b *Trace) bool {
		return a.root.start.After(b.root.start)
	})
}

// Slowest returns up to n slow-captured traces, longest first.
func (t *Tracer) Slowest(n int) []Summary {
	if t == nil {
		return nil
	}
	return summarize(t.slowRing.all(), n, func(a, b *Trace) bool {
		return a.root.duration() > b.root.duration()
	})
}

// spanKey carries the active span through a context.
type spanKey struct{}

// Span is one timed operation in a trace. The nil *Span is the disabled
// fast path: every method checks the receiver, so instrumentation sites
// never branch on tracer state themselves. Attribute arguments are
// still evaluated at a nil call site, so keep them allocation-free
// (constants, existing strings, integer casts).
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Start begins a child of the active span in ctx and returns a context
// carrying it. Outside a traced request (or with tracing disabled) it
// returns ctx unchanged and a nil span, allocating nothing. Every Start
// must be paired with End — atislint's spanend analyzer enforces a
// deferred or all-paths End on pain of CI.
//
//atis:hotpath
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	//lint:ignore hotpath enabled path: the span node is a traced request's deliberate cost
	sp := &Span{tr: parent.tr, name: name, start: time.Now()}
	parent.tr.mu.Lock()
	parent.children = append(parent.children, sp)
	parent.tr.mu.Unlock()
	//lint:ignore hotpath enabled path: propagating the child span needs a new context node
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// FromContext returns the active span, or nil (a no-op span) when ctx
// carries none — for annotating the current phase without opening a new
// span.
//
//atis:hotpath
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// End closes the span. Safe on nil and idempotent (the first End wins).
//
//atis:hotpath
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// TraceID returns the owning trace's id ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// The setters nil-check before the value reaches an `any` parameter:
// boxing a string or float into an interface allocates, and that must
// not happen on the disabled (nil-span) path.

// SetStr attaches a string attribute.
//
//atis:hotpath
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	//lint:ignore hotpath enabled path: boxing the attribute is a traced request's deliberate cost
	s.set(key, v)
}

// SetInt attaches an integer attribute.
//
//atis:hotpath
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	//lint:ignore hotpath enabled path: boxing the attribute is a traced request's deliberate cost
	s.set(key, v)
}

// SetFloat attaches a float attribute.
//
//atis:hotpath
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	//lint:ignore hotpath enabled path: boxing the attribute is a traced request's deliberate cost
	s.set(key, v)
}

// SetBool attaches a boolean attribute.
//
//atis:hotpath
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	//lint:ignore hotpath enabled path: boxing the attribute is a traced request's deliberate cost
	s.set(key, v)
}

func (s *Span) set(key string, v any) {
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.tr.mu.Unlock()
}

// duration returns the span's wall time, 0 while still open. Callers
// hold tr.mu or own the only reference.
func (s *Span) duration() time.Duration {
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// newHexID returns 2n lowercase hex chars of cryptographic randomness,
// falling back to a process-local counter if the source fails.
func newHexID(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		binary.BigEndian.PutUint64(b[:8], idFallback.Add(1))
	}
	return hex.EncodeToString(b)
}

var idFallback atomic.Uint64
