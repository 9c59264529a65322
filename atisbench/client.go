package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// opKind names the three request types the workloads send.
type opKind uint8

const (
	opRoute   opKind = iota // GET /v1/route
	opBatch                 // POST /v1/routes/batch
	opPublish               // POST /v1/traffic/batch
	opReset                 // POST /v1/traffic/reset
)

// op is one generated request. It holds no pointers, so a run's streams
// can live off the Go heap: a read names its pairs, a publish its edge
// changes, as the range [off, off+n) of the inputs' pair or change array.
// The server only ever sees these generated values.
type op struct {
	kind   opKind
	off, n int32
}

// units is what o counts for in rates and CPU costs: a read one per pair,
// a write one.
func (o *op) units() int {
	if o.kind == opRoute || o.kind == opBatch {
		return int(o.n)
	}
	return 1
}

func (in *inputs) pairsOf(o *op) []pair { return in.pairs[o.off : o.off+o.n] }

func (in *inputs) changesOf(o *op) []graph.EdgeCostChange { return in.changes[o.off : o.off+o.n] }

// request renders o as the HTTP request the server sees, building it in
// *buf (kept for reuse).
func (in *inputs) request(o *op, buf *[]byte) (method, path string, body []byte) {
	method, path, body = in.render(o, (*buf)[:0])
	if body != nil {
		*buf = body[:0]
	}
	return method, path, body
}

func (in *inputs) render(o *op, b []byte) (method, path string, body []byte) {
	switch o.kind {
	case opRoute:
		p := in.pairsOf(o)[0]
		b = append(b, "/v1/route?from="...)
		b = strconv.AppendInt(b, int64(p.from), 10)
		b = append(b, "&to="...)
		b = strconv.AppendInt(b, int64(p.to), 10)
		if in.algo != "" {
			b = append(b, "&algo="...)
			b = append(b, in.algo...)
		}
		return http.MethodGet, string(b), nil
	case opBatch:
		b = append(b, `{"algo":"`...)
		b = append(b, in.algo...)
		b = append(b, `","pairs":[`...)
		for i, p := range in.pairsOf(o) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"from":"`...)
			b = strconv.AppendInt(b, int64(p.from), 10)
			b = append(b, `","to":"`...)
			b = strconv.AppendInt(b, int64(p.to), 10)
			b = append(b, `"}`...)
		}
		return http.MethodPost, "/v1/routes/batch", append(b, "]}"...)
	case opReset:
		return http.MethodPost, "/v1/traffic/reset", nil
	default:
		b = append(b, `{"changes":[`...)
		for i, c := range in.changesOf(o) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"from":"`...)
			b = strconv.AppendInt(b, int64(c.Tail), 10)
			b = append(b, `","to":"`...)
			b = strconv.AppendInt(b, int64(c.Head), 10)
			b = append(b, `","cost":`...)
			b = strconv.AppendFloat(b, c.Cost, 'g', -1, 64)
			b = append(b, '}')
		}
		return http.MethodPost, "/v1/traffic/batch", append(b, "]}"...)
	}
}

// routeBody is the part of a route answer the oracle checks.
type routeBody struct {
	Found bool    `json:"found"`
	Cost  float64 `json:"cost"`
	Nodes []int32 `json:"nodes"`
	Error string  `json:"error"`
}

type batchBody struct {
	Count  int         `json:"count"`
	Routes []routeBody `json:"routes"`
}

type publishBody struct {
	AffectedEdges int `json:"affectedEdges"`
	Changes       int `json:"changes"`
}

// answer is one route answer kept for the oracle; its path lives in the
// recorder's node arena.
type answer struct {
	found   bool
	errored bool // the batch item carried an error instead of a route
	cost    float64
	off, n  int32
}

// result is one completed request. Times are nanoseconds since the run's
// epoch; due is the scheduled send time (the send time in closed loops).
// It holds no pointers, so the collector never scans the buffers.
type result struct {
	due, sent, done int64
	op              int32
	ans             int32 // first answer in the recorder's answers
	affected        int32 // publishes: the server's affectedEdges
	failed          bool  // transport error, non-2xx status or undecodable body
	wrong           bool  // the oracle rejected an answer
}

// recorder holds one connection's results in buffers sized before the
// run, off the Go heap when given an arena, so the timed loop does not
// grow them and the oracle can check every answer after the clock stops.
type recorder struct {
	results  []result
	answers  []answer
	nodes    []int32
	firstErr error // the first request failure
}

func newRecorder(a *arena, results, answers, nodes int) *recorder {
	return &recorder{
		results: arenaSlice[result](a, results),
		answers: arenaSlice[answer](a, answers),
		nodes:   arenaSlice[int32](a, nodes),
	}
}

// conn is one client connection driven by one goroutine.
type conn struct {
	base  string
	tr    *http.Transport
	cl    *http.Client
	buf   []byte
	body  bytes.Buffer
	route routeBody
	batch batchBody
	pub   publishBody
	sleep *sleeper
}

func newConn(addr string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: "http://" + addr, tr: tr, cl: &http.Client{Transport: tr}, buf: make([]byte, 0, 4096)}
}

func (c *conn) close() {
	c.tr.CloseIdleConnections()
	if c.sleep != nil {
		c.sleep.close()
	}
}

// roundTrip sends one request and returns the body of a 2xx response.
func (c *conn) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.cl.Do(req)
	if err != nil {
		return nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	return c.body.Bytes(), nil
}

func (c *conn) get(ctx context.Context, path string) ([]byte, error) {
	return c.roundTrip(ctx, http.MethodGet, path, nil)
}

// send issues o and records its outcome in rec.
func (c *conn) send(ctx context.Context, in *inputs, o *op, rec *recorder, r *result) {
	method, path, body := in.request(o, &c.buf)
	raw, err := c.roundTrip(ctx, method, path, body)
	r.done = now()
	if err == nil {
		err = decodeInto(raw, o, rec, r, c)
	}
	if err != nil {
		r.failed = true
		if rec.firstErr == nil {
			rec.firstErr = err
		}
	}
}

// decodeInto parses a 2xx body and appends its answers to rec.
func decodeInto(raw []byte, o *op, rec *recorder, r *result, c *conn) error {
	r.ans = int32(len(rec.answers))
	switch o.kind {
	case opRoute:
		c.route = routeBody{Nodes: c.route.Nodes[:0]}
		if err := json.Unmarshal(raw, &c.route); err != nil {
			return fmt.Errorf("decode route: %w", err)
		}
		rec.add(&c.route)
	case opBatch:
		// Unmarshal decodes into the existing elements in place, so clear
		// every one a previous batch may have filled.
		all := c.batch.Routes[:cap(c.batch.Routes)]
		for i := range all {
			all[i] = routeBody{Nodes: all[i].Nodes[:0]}
		}
		c.batch.Count = 0
		if err := json.Unmarshal(raw, &c.batch); err != nil {
			return fmt.Errorf("decode batch: %w", err)
		}
		if c.batch.Count != int(o.n) || len(c.batch.Routes) != int(o.n) {
			return fmt.Errorf("batch of %d pairs answered with %d routes", o.n, len(c.batch.Routes))
		}
		for i := range c.batch.Routes {
			rec.add(&c.batch.Routes[i])
		}
	case opPublish:
		c.pub = publishBody{}
		if err := json.Unmarshal(raw, &c.pub); err != nil {
			return fmt.Errorf("decode publish: %w", err)
		}
		if c.pub.Changes != int(o.n) {
			return fmt.Errorf("publish of %d changes acknowledged %d", o.n, c.pub.Changes)
		}
		r.affected = int32(c.pub.AffectedEdges)
	}
	return nil
}

func (rec *recorder) add(b *routeBody) {
	a := answer{found: b.Found, errored: b.Error != "", cost: b.Cost, off: int32(len(rec.nodes)), n: int32(len(b.Nodes))}
	rec.nodes = append(rec.nodes, b.Nodes...)
	rec.answers = append(rec.answers, a)
}

// epoch is the run's time origin; results store nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// openLoop sends ops[lo:hi] on a fixed schedule, op lo+i due at
// start + i/rate, dealt round-robin to the connections. A connection
// still busy with its previous request sends late; latency is taken from
// the due time, so a stall is charged to every request it delays.
func openLoop(ctx context.Context, in *inputs, conns []*conn, recs []*recorder, ops []op, lo, hi int, rate float64) {
	start := now()
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn, rec := conns[c], recs[c]
			if cn.sleep == nil {
				cn.sleep = newSleeper()
			}
			for i := lo + c; i < hi && ctx.Err() == nil; i += len(conns) {
				due := start + int64(float64(i-lo)*1e9/rate)
				if d := due - now(); d > 0 {
					cn.sleep.sleep(time.Duration(d))
				}
				rec.results = append(rec.results, result{op: int32(i), due: due, sent: now()})
				r := &rec.results[len(rec.results)-1]
				cn.send(ctx, in, &ops[i], rec, r)
			}
		}(c)
	}
	wg.Wait()
}

// closedLoop sends ops[lo:hi] back to back on every connection until the
// deadline or the end of the range; each connection waits for its reply
// before its next request.
func closedLoop(ctx context.Context, in *inputs, conns []*conn, recs []*recorder, ops []op, lo, hi int, d time.Duration) {
	deadline := now() + int64(d)
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				t := now()
				i := int(next.Add(1)) - 1
				if t >= deadline || i >= hi {
					return
				}
				recs[c].results = append(recs[c].results, result{op: int32(i), due: t, sent: t})
				r := &recs[c].results[len(recs[c].results)-1]
				conns[c].send(ctx, in, &ops[i], recs[c], r)
			}
		}(c)
	}
	wg.Wait()
}
