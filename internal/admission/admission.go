// Package admission is the server's load-shedding front door: a weighted
// semaphore sized from the machine's parallelism, a bounded FIFO wait
// queue, and per-algorithm-class expansion budgets.
//
// The design follows the standard overload playbook. Searches are
// CPU-bound, so admitting more of them than the machine has cores buys
// no throughput — it only inflates every request's latency until all of
// them miss their deadlines (congestion collapse). The gate therefore
// caps concurrent search work at a small multiple of GOMAXPROCS,
// parks a bounded number of excess requests in arrival order, and sheds
// the rest immediately with ErrShed so clients get a fast, honest 503
// instead of a slow timeout. Queued requests keep their context: a
// caller that gives up while waiting leaves the queue without consuming
// capacity.
//
// Weights let expensive algorithm classes count for more than one slot:
// the paper's iterative kernel explores the whole reachable graph every
// run, so one iterative request displaces two cheap ones. Expansion
// budgets (search.WithBudget) bound the work a single admitted request
// can do, with the iterative class tightest — admission controls how
// many searches run, budgets control how big each may get.
package admission

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// ErrShed reports that the gate's wait queue was full and the request
// was rejected immediately. HTTP handlers translate it to 503 with a
// Retry-After hint.
var ErrShed = errors.New("admission: server saturated, request shed")

// Class describes how the gate treats one algorithm family.
type Class struct {
	// Name labels telemetry.
	Name string
	// Weight is the semaphore units one request of this class occupies.
	Weight int64
	// MaxExpansions bounds the search's expansion count
	// (search.WithBudget); 0 means unbudgeted. These are runaway
	// backstops far above any sane request on the bundled maps, not
	// fairness knobs — the deadline is the primary bound.
	MaxExpansions int
}

// ClassFor maps an algorithm onto its admission class. The iterative
// kernel always explores the whole reachable graph, so it weighs double
// and gets the tightest expansion budget; CH queries settle a few
// hundred nodes regardless of graph size and run unbudgeted.
func ClassFor(algo core.Algorithm) Class {
	switch algo {
	case core.Iterative:
		return Class{Name: "iterative", Weight: 2, MaxExpansions: 2_000_000}
	case core.CH:
		return Class{Name: "ch", Weight: 1, MaxExpansions: 0}
	default:
		return Class{Name: "best-first", Weight: 1, MaxExpansions: 8_000_000}
	}
}

// Config sizes a Gate. The zero value yields production defaults.
type Config struct {
	// MaxInFlight is the semaphore capacity in weight units; 0 means
	// 2×GOMAXPROCS (searches are CPU-bound; a small multiple keeps the
	// cores busy through scheduling gaps without oversubscribing).
	MaxInFlight int
	// MaxQueue bounds waiting requests; 0 means max(64, 8×capacity).
	// Beyond it, Acquire sheds. A queue several times the capacity
	// absorbs arrival bursts; deeper queues only add dead time.
	MaxQueue int
	// DefaultBudget is the server-side deadline applied to requests
	// that do not ask for one; 0 means 10s.
	DefaultBudget time.Duration
	// MaxBudget caps client-requested deadlines (?budget_ms=); 0 means
	// 60s.
	MaxBudget time.Duration
	// Degrade enables degraded answers for shed route requests: served
	// from the route cache or the CH index instead of a 503.
	Degrade bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8 * c.MaxInFlight
		if c.MaxQueue < 64 {
			c.MaxQueue = 64
		}
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 10 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 60 * time.Second
	}
	return c
}

// waiter is one parked Acquire call. ready is buffered so a grant never
// blocks the releaser; abandoned marks a waiter whose context died
// before it was granted (the grant loop skips it).
type waiter struct {
	weight    int64
	ready     chan struct{}
	abandoned bool
}

// Gate is the weighted-semaphore admission controller. Safe for
// concurrent use.
type Gate struct {
	cfg      Config
	capacity int64

	mu       sync.Mutex
	inFlight int64
	queue    []*waiter

	granted  *telemetry.Counter // admitted without waiting
	queued   *telemetry.Counter // admitted after waiting
	shed     *telemetry.Counter // rejected, queue full
	canceled *telemetry.Counter // left the queue, context died
	waitSecs *telemetry.Histogram
}

// NewGate builds a gate from cfg (zero value → defaults), registering
// its instruments in reg.
func NewGate(cfg Config, reg *telemetry.Registry) *Gate {
	cfg = cfg.withDefaults()
	g := &Gate{
		cfg:      cfg,
		capacity: int64(cfg.MaxInFlight),
		granted: reg.Counter("atis_admission_requests_total",
			"Admission outcomes.", telemetry.L("outcome", "granted")),
		queued: reg.Counter("atis_admission_requests_total",
			"Admission outcomes.", telemetry.L("outcome", "queued")),
		shed: reg.Counter("atis_admission_requests_total",
			"Admission outcomes.", telemetry.L("outcome", "shed")),
		canceled: reg.Counter("atis_admission_requests_total",
			"Admission outcomes.", telemetry.L("outcome", "canceled")),
		waitSecs: reg.Histogram("atis_admission_wait_seconds",
			"Time requests spend parked in the admission queue.", nil),
	}
	reg.GaugeFunc("atis_admission_in_flight",
		"Semaphore units currently admitted.", func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(g.inFlight)
		})
	reg.GaugeFunc("atis_admission_queue_depth",
		"Requests parked in the admission queue.", func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(len(g.queue))
		})
	return g
}

// Config returns the gate's resolved configuration.
func (g *Gate) Config() Config { return g.cfg }

// Acquire admits a request of the given weight, blocking in FIFO order
// while the semaphore is full. It returns a release function that MUST
// be called exactly once, or an error: ErrShed when the wait queue is
// full, or the context's error (via ctx) when the caller's context dies
// while parked. Weights above capacity are clamped so oversized classes
// remain servable (they just run alone).
func (g *Gate) Acquire(ctx context.Context, weight int64) (release func(), err error) {
	if weight < 1 {
		weight = 1
	}
	if weight > g.capacity {
		weight = g.capacity
	}
	admitted, w, err := g.admitOrPark(weight)
	if err != nil {
		g.shed.Inc()
		return nil, err
	}
	if admitted {
		g.granted.Inc()
		return func() { g.release(weight) }, nil
	}

	start := time.Now()
	select {
	case <-w.ready:
		g.waitSecs.Observe(time.Since(start).Seconds())
		g.queued.Inc()
		return func() { g.release(weight) }, nil
	case <-ctx.Done():
		if g.abandon(w) {
			// Granted in the race window: we hold capacity, give it
			// back (and wake whoever now fits).
			g.release(weight)
		}
		g.canceled.Inc()
		return nil, ctx.Err()
	}
}

// admitOrPark makes the under-lock admission decision: admit
// immediately only when nobody is parked ahead of us — the queue is
// strictly FIFO so a heavy waiter cannot be starved by a stream of
// light arrivals slipping past it — otherwise park a new waiter, or
// shed when the queue is at its bound.
//
//atis:hotpath
func (g *Gate) admitOrPark(weight int64) (admitted bool, w *waiter, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) == 0 && g.inFlight+weight <= g.capacity {
		g.inFlight += weight
		return true, nil, nil
	}
	if len(g.queue) >= g.cfg.MaxQueue {
		return false, nil, ErrShed
	}
	w = &waiter{weight: weight, ready: make(chan struct{}, 1)}
	g.queue = append(g.queue, w)
	return false, w, nil
}

// abandon resolves the cancel/grant race for a parked waiter whose
// context died. It reports whether the waiter was granted in the race
// window — in which case the caller holds capacity and must release it.
func (g *Gate) abandon(w *waiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-w.ready:
		return true
	default:
		w.abandoned = true
		return false
	}
}

// release returns weight units, pops abandoned waiters, and grants
// ready ones in arrival order while capacity allows.
//
//atis:hotpath
func (g *Gate) release(weight int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inFlight -= weight
	for len(g.queue) > 0 {
		w := g.queue[0]
		if w.abandoned {
			g.queue[0] = nil
			g.queue = g.queue[1:]
			continue
		}
		if g.inFlight+w.weight > g.capacity {
			return
		}
		g.inFlight += w.weight
		g.queue[0] = nil
		g.queue = g.queue[1:]
		w.ready <- struct{}{}
	}
}

// Stats is the gate's state snapshot for /stats.
type Stats struct {
	// Capacity is the semaphore size in weight units.
	Capacity int `json:"capacity"`
	// InFlight is the units currently admitted.
	InFlight int `json:"inFlight"`
	// QueueDepth is the requests currently parked.
	QueueDepth int `json:"queueDepth"`
	// MaxQueue is the queue bound beyond which requests shed.
	MaxQueue int `json:"maxQueue"`
	// Granted counts immediate admissions; Queued, admissions after a
	// wait; Shed, queue-full rejections; Canceled, waiters whose
	// context died.
	Granted  uint64 `json:"granted"`
	Queued   uint64 `json:"queued"`
	Shed     uint64 `json:"shed"`
	Canceled uint64 `json:"canceled"`
	// DefaultBudgetMillis and MaxBudgetMillis echo the deadline policy.
	DefaultBudgetMillis int64 `json:"defaultBudgetMillis"`
	MaxBudgetMillis     int64 `json:"maxBudgetMillis"`
	// Degraded reports whether shed route requests may be answered
	// from the cache or CH index.
	Degraded bool `json:"degradedServing"`
}

// Stats snapshots the gate.
func (g *Gate) Stats() Stats {
	g.mu.Lock()
	inFlight, depth := g.inFlight, len(g.queue)
	g.mu.Unlock()
	return Stats{
		Capacity:            int(g.capacity),
		InFlight:            int(inFlight),
		QueueDepth:          depth,
		MaxQueue:            g.cfg.MaxQueue,
		Granted:             g.granted.Value(),
		Queued:              g.queued.Value(),
		Shed:                g.shed.Value(),
		Canceled:            g.canceled.Value(),
		DefaultBudgetMillis: g.cfg.DefaultBudget.Milliseconds(),
		MaxBudgetMillis:     g.cfg.MaxBudget.Milliseconds(),
		Degraded:            g.cfg.Degrade,
	}
}
