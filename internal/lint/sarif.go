package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Machine-readable output: SARIF 2.1.0 in the minimal shape GitHub code
// scanning ingests (tool.driver.rules with ruleIndex back-references, one
// physicalLocation per result, and %SRCROOT%-relative artifact URIs).

// sarifLog is the document root.
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
	InformationURI string      `json:"informationUri"`
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
	RuleIndex int             `json:"ruleIndex"`
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
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

const sarifSchemaURI = "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/sarif-schema-2.1.0.json"

// WriteSARIF renders diagnostics as a SARIF 2.1.0 log. root (the module
// root) relativizes file paths; paths outside root are kept absolute.
func WriteSARIF(w io.Writer, diags []Diagnostic, root string) error {
	// Rules: the distinct analyzers that fired, in sorted order, with docs
	// from the registry (pseudo-analyzers like "typecheck" get a stub).
	docs := map[string]string{
		"typecheck": "the package must type-check",
		"lint":      "suppression comments must be well-formed",
	}
	for _, a := range All() {
		docs[a.Name] = a.Doc
	}
	ruleIndex := make(map[string]int)
	var rules []sarifRule
	for _, d := range diags {
		if _, seen := ruleIndex[d.Analyzer]; !seen {
			ruleIndex[d.Analyzer] = -1 // placeholder; indexed after sorting
		}
	}
	names := make([]string, 0, len(ruleIndex))
	for name := range ruleIndex {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		ruleIndex[name] = i
		rules = append(rules, sarifRule{ID: name, ShortDescription: sarifMessage{Text: docs[name]}})
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		level := "error"
		if d.Analyzer == "lint" {
			level = "warning"
		}
		region := sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column}
		if region.StartLine <= 0 {
			region.StartLine = 1 // directory-scoped findings (typecheck)
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ruleIndex[d.Analyzer],
			Level:     level,
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       relativeURI(root, d.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: region,
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  sarifSchemaURI,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "qbplint",
				InformationURI: "https://example.invalid/repro/qbplint",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relativeURI renders path relative to root with forward slashes; paths
// outside root stay as given (slash-normalized).
func relativeURI(root, path string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(path)
}
