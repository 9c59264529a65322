// Command atisbench is the repository's benchmark. It serves the ATIS
// route service in-process — route.NewService, search.EnableTelemetry,
// Service.EnableCH and httpapi.NewServer, configured as atis-server -ch
// configures them, on an ephemeral 127.0.0.1 port — and drives it over
// real HTTP from at most two client connections, checking every answer
// against an oracle.
//
//	atisbench --workload ch-cold --seed 1 --seconds 10 --trace 0
//	atisbench --workload all --seed 1 --seconds 10 --trace 1
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the run also replays its
// operation stream layer by layer and reports the per-layer metrics
// instead, writing the spans to --spans. A human-readable table, with
// sample counts and the failure ratio, goes to standard error.
// WORKLOADS.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("atisbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the maps and request streams")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 replays the stream layer by layer and reports per-layer metrics")
	spans := fs.String("spans", "", "file for the traced run's spans (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "atisbench: --trace must be 0 or 1\n")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "atisbench: unknown workload %q\n", *name)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A panic must not skip the server shutdowns deferred below it; it is
	// turned into a failed exit here, after they have run.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "atisbench: panic: %v\n", p)
			code = 1
		}
	}()

	for _, w := range selected {
		o := options{seconds: *seconds, trace: *trace == 1, setupsPerSlice: w.setupsPerSlice, spans: *spans, log: stderr}
		if o.trace {
			// The layer replays come on top of the untraced run; halving
			// the latter keeps a traced run as long as an untraced one.
			o.seconds /= 2
			o.setupsPerSlice = 0
			if o.spans == "" {
				o.spans = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", w.name, *seed)
			}
		}
		rep, err := runWorkload(ctx, w, *seed, o)
		if err != nil {
			fmt.Fprintf(stderr, "atisbench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stderr, w, rep)
		if err := writeResult(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "atisbench: %v\n", err)
			return 1
		}
		if rep.failed > 0 {
			code = 1
		}
	}
	return code
}

func printReport(out io.Writer, w workload, rep *report) {
	fmt.Fprintf(out, "%s: %d operations, %d failed (fail_ratio %.6f)\n", w.name, rep.attempted, rep.failed,
		float64(rep.failed)/float64(max(rep.attempted, 1)))
	if rep.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", rep.firstErr)
	}
	for _, m := range append(rep.metrics, rep.layers...) {
		fmt.Fprintf(out, "  %-30s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, m := range rep.info {
		fmt.Fprintf(out, "  %-30s %14.6g %-6s n=%d (not gated)\n", m.name, m.value, m.unit, m.samples)
	}
}

// writeResult prints the run's one-line JSON result: the per-layer metrics
// of a traced run, the end-to-end ones otherwise.
func writeResult(out io.Writer, rep *report) error {
	metrics := rep.metrics
	if rep.layers != nil {
		metrics = rep.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(metrics))
	for _, m := range metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
