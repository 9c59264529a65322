package telemetry

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// ContentTypeOpenMetrics is the media type a scraper sends in Accept to
// opt into the OpenMetrics exposition (and receives back).
const ContentTypeOpenMetrics = "application/openmetrics-text"

// WriteOpenMetrics renders every registered metric in OpenMetrics text
// format (version 1.0.0). It differs from the Prometheus 0.0.4 writer in
// exactly the ways a scraper cares about: counter families drop their
// `_total` suffix in the TYPE/HELP header while samples keep it,
// histogram bucket lines carry exemplars linking to captured traces,
// and the exposition terminates with `# EOF`.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

// writeBucket renders one histogram bucket line, appending the
// OpenMetrics exemplar clause when ex carries one (WriteText passes nil):
//
//	name_bucket{le="0.005"} 4 # {trace_id="abc..."} 0.0032 1712000000.0
func writeBucket(w *bufio.Writer, name, labels, value string, ex *Exemplar) {
	w.WriteString(name + "_bucket")
	if labels != "" {
		w.WriteString("{" + labels + "}")
	}
	w.WriteString(" " + value)
	if ex != nil && ex.TraceID != "" {
		w.WriteString(` # {trace_id="` + escapeLabelValue(ex.TraceID) + `"} ` +
			formatFloat(ex.Value) + " " + strconv.FormatFloat(ex.Unix, 'f', 3, 64))
	}
	w.WriteString("\n")
}

// acceptsOpenMetrics reports whether an Accept header opts into the
// OpenMetrics exposition. A full q-value parse is not warranted for a
// two-format endpoint: any mention of the media type counts.
func acceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, ContentTypeOpenMetrics)
}

// negotiatedHandler serves Prometheus 0.0.4 text by default and
// OpenMetrics (with exemplars) when the scraper asks for it.
func (r *Registry) negotiatedHandler(w http.ResponseWriter, req *http.Request) {
	if acceptsOpenMetrics(req.Header.Get("Accept")) {
		w.Header().Set("Content-Type", ContentTypeOpenMetrics+"; version=1.0.0; charset=utf-8")
		_ = r.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteText(w)
}
