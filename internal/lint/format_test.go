package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/storage/disk.go", Line: 42, Column: 7},
			Analyzer: "lockscope",
			Message:  "d.pages is guarded by d.mu but accessed without holding it",
		},
		{
			Pos:      token.Position{Filename: "internal/telemetry/registry.go", Line: 9, Column: 2},
			Analyzer: "ignore",
			Message:  `//lint:ignore names unknown analyzer "lockscpoe"; the suppression has no effect (known: lockscope)`,
		},
	}
}

// TestWriteJSON round-trips the JSON rendering and checks the shape the
// scripting consumers depend on: a version field plus a findings array
// with file/line/column/analyzer/message per entry, and an empty (not
// null) findings array when the run is clean.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleDiags()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version  int `json:"version"`
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Version != 1 {
		t.Errorf("version = %d, want 1", doc.Version)
	}
	if len(doc.Findings) != 2 {
		t.Fatalf("findings = %d, want 2", len(doc.Findings))
	}
	f := doc.Findings[0]
	if f.File != "internal/storage/disk.go" || f.Line != 42 || f.Column != 7 || f.Analyzer != "lockscope" {
		t.Errorf("first finding mangled: %+v", f)
	}
	if !strings.Contains(f.Message, "guarded by d.mu") {
		t.Errorf("message lost: %q", f.Message)
	}

	// A clean run must emit an empty array, not null — consumers index
	// .findings without a nil check.
	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"findings": []`) {
		t.Errorf("clean run must render findings as [], got:\n%s", buf.String())
	}
}

// TestWriteSARIF checks the SARIF 2.1.0 skeleton GitHub code scanning
// requires: schema/version headers, one rule per analyzer plus the
// synthetic "ignore" rule, and results carrying %SRCROOT%-based URIs.
func TestWriteSARIF(t *testing.T) {
	analyzers := Analyzers()
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, sampleDiags(), analyzers); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("SARIF headers wrong: version=%q schema=%q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "atislint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if want := len(analyzers) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("rules = %d, want %d (one per analyzer plus the ignore rule)", len(run.Tool.Driver.Rules), want)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, a := range analyzers {
		if !ruleIDs[a.Name()] {
			t.Errorf("rule metadata missing for analyzer %q", a.Name())
		}
	}
	if !ruleIDs["ignore"] {
		t.Error("synthetic ignore rule missing")
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "lockscope" || res.Level != "error" {
		t.Errorf("first result mangled: %+v", res)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/storage/disk.go" || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("artifact location = %+v", loc.ArtifactLocation)
	}
	if loc.Region.StartLine != 42 {
		t.Errorf("start line = %d, want 42", loc.Region.StartLine)
	}

	// Every result's ruleId must resolve against the rule table — code
	// scanning rejects logs with dangling rule references.
	for _, r := range run.Results {
		if !ruleIDs[r.RuleID] {
			t.Errorf("result ruleId %q has no matching rule entry", r.RuleID)
		}
	}
}
