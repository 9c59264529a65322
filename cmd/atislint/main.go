// Command atislint runs the project's static-analysis suite: the
// analyzers that mechanically enforce the engine's invariants no runtime
// test can carry — today lock scope (see internal/lint and the "Static
// analysis" section of the README; `atislint -list` prints the current
// set). Hot-path allocation freedom, pool pairing, kernel context
// polling, span lifecycle and snapshot immutability are not linted:
// runtime tests carry them (the AllocsPerRun gates, the countdown-context
// tests, and httpapi's TestEverySpanEnded and
// TestSnapshotDigestsUnchangedByReads).
//
// Usage:
//
//	atislint [-analyzers lockscope] [-format text|json|sarif] [-list] [module-root]
//
// The module root defaults to the current directory. Exit status is 0
// when clean, 1 when findings remain after //lint:ignore suppression, and
// 2 on usage or load errors. The default text format prints findings as
// file:line:col: analyzer: message, relative to the module root; -format
// json emits a machine-readable document and -format sarif emits SARIF
// 2.1.0 for GitHub code scanning.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list the available analyzers and exit")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	format := flag.String("format", "text", "output format: text, json, or sarif")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: atislint [flags] [module-root]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the project invariant analyzers over every package of the module.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]lint.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name()] = a
		}
		var selected []lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "atislint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
		analyzers = selected
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "atislint: unknown format %q (want text, json, or sarif)\n", *format)
		return 2
	}

	root := "."
	switch flag.NArg() {
	case 0:
	case 1:
		root = flag.Arg(0)
	default:
		flag.Usage()
		return 2
	}

	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atislint: %v\n", err)
		return 2
	}
	units, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "atislint: %v\n", err)
		return 2
	}

	diags := lint.Run(units, analyzers)
	absRoot, err := filepath.Abs(root)
	if err != nil {
		absRoot = root
	}
	for i := range diags {
		if rel, err := filepath.Rel(absRoot, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	switch *format {
	case "json":
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "atislint: %v\n", err)
			return 2
		}
	case "sarif":
		if err := lint.WriteSARIF(os.Stdout, diags, analyzers); err != nil {
			fmt.Fprintf(os.Stderr, "atislint: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "atislint: %d finding(s) across %d package(s)\n", len(diags), len(units))
		return 1
	}
	return 0
}
