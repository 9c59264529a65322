package tracing

import (
	"sort"
	"time"
)

// Summary is the list-view projection of a captured trace, returned by
// the /v1/debug/traces index.
type Summary struct {
	TraceID    string  `json:"traceId"`
	Name       string  `json:"name"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"durationMs"`
	Spans      int     `json:"spans"`
	Slow       bool    `json:"slow"`
	Sampled    bool    `json:"sampled"`
}

// Snapshot is the full span tree of one captured trace, returned by
// /v1/debug/traces/{id}.
type Snapshot struct {
	TraceID    string   `json:"traceId"`
	RootSpanID string   `json:"rootSpanId"`
	Upstream   string   `json:"upstreamSpanId,omitempty"`
	Slow       bool     `json:"slow"`
	Sampled    bool     `json:"sampled"`
	Root       SpanNode `json:"root"`
}

// SpanNode is one span in a Snapshot tree.
type SpanNode struct {
	Name       string         `json:"name"`
	Start      string         `json:"start"`
	DurationMS float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanNode     `json:"children,omitempty"`
	// Open marks a span that had not ended when the snapshot was taken.
	// In a finished trace that is a span its phase forgot to End.
	Open bool `json:"open,omitempty"`
}

// snapshot deep-copies the span tree under the trace mutex, so the
// debug endpoints can marshal it while request goroutines still append
// children (batch items finishing after the root).
func (tr *Trace) snapshot() Snapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return Snapshot{
		TraceID:    tr.id,
		RootSpanID: tr.rootSpanID,
		Upstream:   tr.upstream,
		Slow:       tr.slow.Load(),
		Sampled:    tr.sampled,
		Root:       snapshotSpan(tr.root),
	}
}

// snapshotSpan copies one span; caller holds tr.mu.
func snapshotSpan(s *Span) SpanNode {
	n := SpanNode{
		Name:       s.name,
		Start:      s.start.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(s.duration()) / float64(time.Millisecond),
		Open:       s.end.IsZero(),
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		n.Children = append(n.Children, snapshotSpan(c))
	}
	return n
}

// summary projects the list view; takes tr.mu itself.
func (tr *Trace) summary() Summary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return Summary{
		TraceID:    tr.id,
		Name:       tr.root.name,
		Start:      tr.root.start.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(tr.root.duration()) / float64(time.Millisecond),
		Spans:      countSpans(tr.root),
		Slow:       tr.slow.Load(),
		Sampled:    tr.sampled,
	}
}

// countSpans sizes the tree; caller holds tr.mu.
func countSpans(s *Span) int {
	n := 1
	for _, c := range s.children {
		n += countSpans(c)
	}
	return n
}

// summarize orders traces by less and returns the first n summaries.
func summarize(traces []*Trace, n int, less func(a, b *Trace) bool) []Summary {
	sort.Slice(traces, func(i, j int) bool { return less(traces[i], traces[j]) })
	if n > 0 && len(traces) > n {
		traces = traces[:n]
	}
	out := make([]Summary, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr.summary())
	}
	return out
}
