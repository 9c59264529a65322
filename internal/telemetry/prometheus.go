package telemetry

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WriteText renders every registered metric in Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per family, then the series
// in sorted label order. Output is deterministic for a given registry state,
// which the golden tests rely on.
func (r *Registry) WriteText(w io.Writer) error { return r.write(w, false) }

// write is the one exposition walker behind WriteText and
// WriteOpenMetrics. The two formats differ only where openMetrics is
// tested: the counter family name drops its _total suffix, bucket lines
// carry exemplars, and the exposition ends with "# EOF".
func (r *Registry) write(w io.Writer, openMetrics bool) error {
	// lookup() appends to f.order and writes f.series under the write lock
	// whenever a first-time series is created, so both must be copied into a
	// local snapshot before the read lock is released — rendering from the
	// live maps would be a concurrent map read/write against any scrape that
	// races a new label combination.
	type famSnapshot struct {
		name, help string
		kind       metricKind
		series     []*series
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]famSnapshot, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		// Series order must not depend on registration order across runs.
		labelSets := append([]string(nil), f.order...)
		sort.Strings(labelSets)
		ss := make([]*series, len(labelSets))
		for i, ls := range labelSets {
			ss[i] = f.series[ls]
		}
		fams = append(fams, famSnapshot{name: f.name, help: f.help, kind: f.kind, series: ss})
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		// OpenMetrics names the counter family without the _total sample
		// suffix: `# TYPE x counter` then `x_total 5`.
		famName, counterName := f.name, f.name
		if openMetrics && f.kind == kindCounter {
			famName = strings.TrimSuffix(f.name, "_total")
			counterName = famName + "_total"
		}
		if f.help != "" {
			bw.WriteString("# HELP " + famName + " " + f.help + "\n")
		}
		bw.WriteString("# TYPE " + famName + " " + f.kind.String() + "\n")
		for _, s := range f.series {
			ls := s.labels
			switch f.kind {
			case kindCounter:
				writeSeries(bw, counterName, ls, formatUint(s.counter.Value()))
			case kindGauge:
				writeSeries(bw, f.name, ls, strconv.FormatInt(s.gauge.Value(), 10))
			case kindGaugeFunc:
				writeSeries(bw, f.name, ls, formatFloat(s.gaugeFn()))
			case kindHistogram:
				h := s.histogram
				cumulative, total := h.snapshot()
				for i := 0; i <= len(h.bounds); i++ {
					le, count := "+Inf", total
					if i < len(h.bounds) {
						le, count = formatFloat(h.bounds[i]), cumulative[i]
					}
					var ex *Exemplar
					if openMetrics {
						ex = h.exemplars[i].Load()
					}
					writeBucket(bw, f.name, joinLabels(ls, `le="`+le+`"`), formatUint(count), ex)
				}
				writeSeries(bw, f.name+"_sum", ls, formatFloat(h.Sum()))
				// _count is derived from the same bucket snapshot as +Inf so
				// the two can never disagree within one exposition.
				writeSeries(bw, f.name+"_count", ls, formatUint(total))
			}
		}
	}
	if openMetrics {
		bw.WriteString("# EOF\n")
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry — the GET
// /metrics endpoint. Prometheus 0.0.4 text by default; a scraper whose
// Accept header names application/openmetrics-text gets the OpenMetrics
// exposition with trace exemplars on histogram buckets instead.
func (r *Registry) Handler() http.Handler {
	// Errors inside mean the client went away mid-scrape; nothing to do.
	return http.HandlerFunc(r.negotiatedHandler)
}

func writeSeries(w *bufio.Writer, name, labels, value string) {
	w.WriteString(name)
	if labels != "" {
		w.WriteString("{" + labels + "}")
	}
	w.WriteString(" " + value + "\n")
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
