package search

import (
	"context"
	"errors"
)

// CheckInterval is the number of lifecycle polls between actual
// context checks in the kernels' hot loops. The search loops call
// lifecycle.poll once per frontier pop (Iterative: once per node
// expansion); most calls cost one increment, one mask, and one
// predictable branch, and only every CheckInterval-th call pays the
// ctx.Err() read. 1024 keeps the amortised cost under the 2% hot-path
// budget (the `make bench-admission` row of the benchmark history in
// CHANGES.md) while bounding cancellation latency to the time of ~1024
// expansions — tens of microseconds on the 100x100 grid, far inside the
// 10ms serving target. Must be a power of two.
const CheckInterval = 1024

// Lifecycle errors. Kernels return them with the partial Trace
// accumulated so far, so callers can account for abandoned work.
var (
	// ErrCanceled reports that the request's context was canceled
	// mid-search (typically: the client hung up).
	ErrCanceled = errors.New("search: canceled")
	// ErrDeadline reports that the request's context deadline expired
	// mid-search (the server-side budget ran out).
	ErrDeadline = errors.New("search: deadline exceeded")
	// ErrBudget reports that the request exhausted its expansion budget
	// (see WithBudget) before reaching the destination.
	ErrBudget = errors.New("search: expansion budget exhausted")
)

// FromContextErr maps a context error onto the package's typed
// lifecycle errors: context.DeadlineExceeded becomes ErrDeadline,
// context.Canceled becomes ErrCanceled, nil stays nil, and anything
// else passes through unchanged. Kernels outside this package (the
// contraction-hierarchy engine) return raw context errors; the planner
// normalises them with this so every layer above sees one error
// vocabulary.
func FromContextErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	}
	return err
}

// ctxErr polls ctx and maps its error onto the typed lifecycle errors.
func ctxErr(ctx context.Context) error {
	return FromContextErr(ctx.Err())
}

// budgetKey looks up the per-request expansion budget in a context.
type budgetKey struct{}

// budgetCtx carries an expansion budget. It answers the budgetKey lookup
// with itself, so attaching a budget costs the one context allocation
// and boxes no integer (context.WithValue would box every budget above
// 255, once per request).
type budgetCtx struct {
	context.Context
	max int
}

func (c *budgetCtx) Value(key any) any {
	if key == (budgetKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// WithBudget returns a context carrying an expansion budget: a kernel
// running under the returned context stops with ErrBudget once it has
// expanded max nodes. max <= 0 means unlimited. The admission layer
// derives budgets per algorithm class — the Iterative transitive-closure
// kernel, whose work is insensitive to path length, gets the tightest.
func WithBudget(ctx context.Context, max int) context.Context {
	return &budgetCtx{Context: ctx, max: max}
}

// BudgetFrom returns the expansion budget carried by ctx, 0 (unlimited)
// when none was set.
func BudgetFrom(ctx context.Context) int {
	if c, _ := ctx.Value(budgetKey{}).(*budgetCtx); c != nil {
		return c.max
	}
	return 0
}

// lifecycle is the per-query cancellation state each kernel polls from
// its main loop. The context value lookup happens once at construction,
// never per pop.
type lifecycle struct {
	ctx    context.Context
	budget int    // max expansions; <=0 unlimited
	calls  uint32 // poll calls since the query started
}

// newLifecycle prepares the poller and performs the entry check, so a
// context that is already dead fails before any search work. The
// returned error, if non-nil, is the typed lifecycle error to surface.
func newLifecycle(ctx context.Context) (lifecycle, error) {
	return lifecycle{ctx: ctx, budget: BudgetFrom(ctx)}, ctxErr(ctx)
}

// poll is the amortised lifecycle check: callers invoke it once per
// frontier pop with their running expansion count. The expansion budget
// is an integer compare on every call (exact, cheap); the context is
// consulted only every CheckInterval-th call.
func (lc *lifecycle) poll(expansions int) error {
	if lc.budget > 0 && expansions >= lc.budget {
		return ErrBudget
	}
	lc.calls++
	if lc.calls&(CheckInterval-1) != 0 {
		return nil
	}
	return ctxErr(lc.ctx)
}

// pollCtx is poll without the expansion budget, for a pass whose pops
// are charged against the budget only once it completes.
func (lc *lifecycle) pollCtx() error {
	lc.calls++
	if lc.calls&(CheckInterval-1) != 0 {
		return nil
	}
	return ctxErr(lc.ctx)
}
