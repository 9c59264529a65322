package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// requestContext derives the request's lifecycle context: the client's
// connection context (so a dropped connection cancels the search) capped
// by a server-side deadline — the gate's default budget, or the client's
// ?budget_ms= ask (q.budgetMS) clamped to the configured maximum. The
// caller must call cancel.
func (s *Server) requestContext(r *http.Request, q *query) (context.Context, context.CancelFunc, error) {
	cfg := s.gate.Config()
	budget := cfg.DefaultBudget
	if bs := q.budgetMS; bs != "" {
		ms, err := strconv.ParseInt(bs, 10, 64)
		if err != nil || ms < 1 {
			return nil, nil, withCode(CodeBadRequest, fmt.Errorf("bad budget_ms %q (want a positive integer)", bs))
		}
		budget = time.Duration(ms) * time.Millisecond
		if budget > cfg.MaxBudget {
			budget = cfg.MaxBudget
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	return ctx, cancel, nil
}

// admit runs the full admission sequence for one search-running request:
// derive the lifecycle context, acquire the gate under the algorithm's
// class weight, and attach the class's expansion budget. On success the
// returned context drives the search and done releases the gate slot and
// the deadline timer. On failure admit writes the error response —
// except a shed when the caller passed degrade=true, where it returns
// the request's context and a done ending its timer with the shed error,
// so the caller may try a degraded answer under that context first.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, q *query, algo core.Algorithm, degrade bool) (context.Context, func(), error) {
	ctx, cancel, err := s.requestContext(r, q)
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "", err)
		return nil, nil, err
	}
	cls := admission.ClassFor(algo)
	release, err := s.acquireGate(ctx, cls)
	if err != nil {
		if errors.Is(err, admission.ErrShed) && degrade && s.gate.Config().Degrade {
			return ctx, cancel, err // caller attempts the degraded path, then shedResponse
		}
		cancel()
		s.admissionError(w, r, err)
		return nil, nil, err
	}
	if cls.MaxExpansions > 0 {
		ctx = search.WithBudget(ctx, cls.MaxExpansions)
	}
	return ctx, func() { release(); cancel() }, nil
}

// acquireGate wraps the gate acquisition in an "admission" span, so a
// traced request shows how long it queued and how it left the gate. The
// span's context is deliberately not returned: admission is a sibling
// phase of the work it admits, not its parent — kernel spans must hang
// off the root, not off the queue wait.
func (s *Server) acquireGate(ctx context.Context, cls admission.Class) (func(), error) {
	_, sp := tracing.Start(ctx, "admission")
	defer sp.End()
	sp.SetInt("weight", int64(cls.Weight))
	release, err := s.gate.Acquire(ctx, cls.Weight)
	if err != nil {
		sp.SetStr("outcome", admissionOutcome(err))
		return nil, err
	}
	sp.SetStr("outcome", "admitted")
	return release, nil
}

// admissionOutcome names a failed acquisition for span attrs — constant
// strings, so recording them costs nothing when tracing is disabled.
func admissionOutcome(err error) string {
	switch {
	case errors.Is(err, admission.ErrShed):
		return "shed"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "canceled"
	}
}

// admissionError writes the response for a failed gate acquisition: shed
// → 503 with a Retry-After hint, deadline expired while queued → 504,
// client gone while queued → 499.
func (s *Server) admissionError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, admission.ErrShed):
		s.shedResponse(w, r, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineReqs.Inc()
		s.apiError(w, r, http.StatusGatewayTimeout, CodeDeadlineExceeded, err)
	default:
		s.canceledReqs.Inc()
		s.apiError(w, r, StatusClientClosedRequest, CodeCanceled, err)
	}
}

// shedResponse is the load-shedding 503: Retry-After tells well-behaved
// clients to back off instead of hammering a saturated server.
func (s *Server) shedResponse(w http.ResponseWriter, r *http.Request, err error) {
	w.Header().Set("Retry-After", "1")
	s.apiError(w, r, http.StatusServiceUnavailable, CodeOverloaded, err)
}

// searchError writes the response for a search that started but did not
// finish: client cancel → 499, deadline or expansion budget → 504,
// anything else is a validation failure → 400.
func (s *Server) searchError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, search.ErrCanceled):
		s.canceledReqs.Inc()
		s.apiError(w, r, StatusClientClosedRequest, CodeCanceled, err)
	case errors.Is(err, search.ErrDeadline), errors.Is(err, search.ErrBudget):
		s.deadlineReqs.Inc()
		s.apiError(w, r, http.StatusGatewayTimeout, CodeDeadlineExceeded, err)
	default:
		s.apiError(w, r, http.StatusBadRequest, "", err)
	}
}

// methodNotAllowed is the fallback handler registered on the method-less
// pattern of every endpoint, so wrong-method requests get the structured
// envelope (and an Allow header) instead of the mux's plain-text 405.
func (s *Server) methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.apiError(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Errorf("%s required", allow))
	}
}

// legacySunset is the scheduled removal date of the unversioned path
// aliases, announced to clients via the Sunset header (RFC 8594) and
// documented in the README's removal schedule.
const legacySunset = "Sun, 01 Nov 2026 00:00:00 GMT"

// deprecate wraps a legacy unversioned endpoint: the handler still
// serves (aliases never break existing clients), but every hit carries a
// Deprecation header, a Link to the successor /v1 path, a Sunset header
// announcing the removal date, and bumps the per-path legacy counter so
// operators can watch migration progress before the sunset lands. Every
// legacy path is mounted through registerLegacy, so this wrapper is the
// single place the deprecation contract lives.
func (s *Server) deprecate(path string, h http.HandlerFunc) http.HandlerFunc {
	counter := s.reg.Counter("atis_http_legacy_path_total",
		"Requests served via deprecated unversioned path aliases.",
		telemetry.L("path", path))
	successor := "/v1" + path
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "<"+successor+`>; rel="successor-version"`)
		w.Header().Set("Sunset", legacySunset)
		counter.Inc()
		h(w, r)
	}
}
