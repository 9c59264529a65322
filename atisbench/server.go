package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/route"
	"repro/internal/search"
)

// newService builds the route layer the way cmd/atis-server -ch does:
// kernel telemetry into the service's registry and the contraction
// hierarchy ready before the first request. The search package has one
// process-wide recorder, which is returned so a later build can hand it
// back.
func newService(g *graph.Graph) (*route.Service, *search.RegistryRecorder, error) {
	svc := route.NewService(g)
	rec := search.EnableTelemetry(svc.Registry())
	if err := svc.EnableCH(); err != nil {
		return nil, nil, fmt.Errorf("enable CH: %w", err)
	}
	return svc, rec, nil
}

// newAPI wraps svc in the HTTP layer as cmd/atis-server configures it,
// with tracing off and the access log still formatted but discarded.
func newAPI(svc *route.Service) *httpapi.Server {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	return httpapi.NewServer(svc, httpapi.WithLogger(logger), httpapi.WithAdmission(admission.Config{}))
}

// stack is one in-process server listening on an ephemeral loopback port.
type stack struct {
	svc  *route.Service
	tel  *search.RegistryRecorder // the kernel telemetry recorder svc installed
	api  *httpapi.Server
	srv  *http.Server
	addr string
	done chan error // Serve's return value
}

// startStack generates the map and serves it, returning once the first
// request has been answered. The elapsed time is the set-up metric.
func startStack(ctx context.Context, w workload, seed int64) (*stack, time.Duration, error) {
	start := time.Now()
	g, err := generateMap(w, seed)
	if err != nil {
		return nil, 0, err
	}
	svc, tel, err := newService(g)
	if err != nil {
		return nil, 0, err
	}
	api := newAPI(svc)
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	st := &stack{
		svc: svc, tel: tel, api: api, addr: ln.Addr().String(), done: make(chan error, 1),
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       60 * time.Second,
		},
	}
	go func() { st.done <- st.srv.Serve(ln) }()
	c := newConn(st.addr)
	defer c.close()
	if _, err := c.get(ctx, "/v1/route?from=0&to=1"); err != nil {
		_ = st.stop() // the request's failure is the one to report
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return st, time.Since(start), nil
}

// reinstate points the kernel telemetry back at st's registry after
// another stack's set-up took it over.
func (st *stack) reinstate() { search.SetRecorder(st.tel) }

// stop shuts the server down, waits for Serve to return, and confirms
// nothing still accepts connections on the port.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if c, derr := net.DialTimeout("tcp", st.addr, 200*time.Millisecond); derr == nil {
		c.Close()
		return fmt.Errorf("listener %s still accepts connections after shutdown", st.addr)
	}
	return err
}
