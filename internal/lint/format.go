package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// The SARIF 2.1.0 rendering of a diagnostic list for cmd/atislint's
// -format sarif: GitHub code scanning reads it, and findings annotate PR
// diffs when the CI job uploads the file.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders the diagnostics as a SARIF 2.1.0 log. File paths
// should already be relative to the module root; they become %SRCROOT%-
// based artifact URIs. The analyzer set provides the rule metadata, plus
// the synthetic "ignore" rule for unknown-suppression warnings.
func WriteSARIF(w io.Writer, diags []Diagnostic, analyzers []Analyzer) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name(), ShortDescription: sarifMessage{Text: a.Doc()}})
	}
	rules = append(rules, sarifRule{ID: "ignore", ShortDescription: sarifMessage{Text: "//lint:ignore directives must name known analyzers"}})

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(d.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "atislint", Rules: rules}},
			Results: results,
		}},
	})
}
