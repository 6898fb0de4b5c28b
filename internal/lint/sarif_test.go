package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// staticDiags is a fixed diagnostic set exercising rule dedup/sorting, the
// pseudo-analyzer level downgrade, line clamping for directory-scoped
// findings, and path relativization.
func staticDiags() []Diagnostic {
	return []Diagnostic{
		{
			Analyzer: "typecheck",
			Pos:      token.Position{Filename: "/mod/internal/qbp"},
			Message:  "type-check failed: undefined: x",
		},
		{
			Analyzer: "map-order-leak",
			Pos:      token.Position{Filename: "/mod/internal/qbp/solve.go", Line: 42, Column: 2},
			Message:  "map iteration order flows into return at line 48 without an intervening sort",
		},
		{
			Analyzer: "map-order-leak",
			Pos:      token.Position{Filename: "/mod/internal/qbp/solve.go", Line: 90, Column: 2},
			Message:  "map iteration order flows into append at line 91 without an intervening sort",
		},
		{
			Analyzer: "lint",
			Pos:      token.Position{Filename: "/mod/internal/gap/gap.go", Line: 7, Column: 1},
			Message:  "malformed //lint:ignore comment: missing reason",
		},
		{
			Analyzer: "flat-bounds",
			Pos:      token.Position{Filename: "/outside/tree.go", Line: 3, Column: 9},
			Message:  "cannot prove flat index i*m.Stride+j stays within len(m.V)",
		},
	}
}

// TestSARIFGolden byte-compares WriteSARIF output against the committed
// golden file. Regenerate with: go test ./internal/lint -run TestSARIFGolden -update
func TestSARIFGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, staticDiags(), "/mod"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	golden := filepath.Join("testdata", "golden.sarif")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output differs from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestSARIFShape asserts the structural invariants GitHub code scanning
// requires of a SARIF 2.1.0 upload, independent of exact serialization.
func TestSARIFShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, staticDiags(), "/mod"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name           string `json:"name"`
					InformationURI string `json:"informationUri"`
					Rules          []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
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
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-schema-2.1.0.json") {
		t.Errorf("$schema = %q, want a 2.1.0 schema URI", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "qbplint" {
		t.Errorf("driver.name = %q, want qbplint", run.Tool.Driver.Name)
	}
	if run.Tool.Driver.InformationURI == "" {
		t.Error("driver.informationUri is empty")
	}

	// Rules: sorted, distinct, covering exactly the analyzers that fired.
	wantRules := []string{"flat-bounds", "lint", "map-order-leak", "typecheck"}
	if len(run.Tool.Driver.Rules) != len(wantRules) {
		t.Fatalf("rules = %d, want %d", len(run.Tool.Driver.Rules), len(wantRules))
	}
	for i, r := range run.Tool.Driver.Rules {
		if r.ID != wantRules[i] {
			t.Errorf("rules[%d].id = %q, want %q", i, r.ID, wantRules[i])
		}
		if r.ShortDescription.Text == "" {
			t.Errorf("rules[%d] (%s) has empty shortDescription", i, r.ID)
		}
	}

	if len(run.Results) != len(staticDiags()) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(staticDiags()))
	}
	for i, res := range run.Results {
		if run.Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
			t.Errorf("results[%d]: ruleIndex %d does not point at rule %q", i, res.RuleIndex, res.RuleID)
		}
		wantLevel := "error"
		if res.RuleID == "lint" {
			wantLevel = "warning"
		}
		if res.Level != wantLevel {
			t.Errorf("results[%d] (%s): level = %q, want %q", i, res.RuleID, res.Level, wantLevel)
		}
		if res.Message.Text == "" {
			t.Errorf("results[%d]: empty message", i)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("results[%d]: locations = %d, want 1", i, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("results[%d]: uriBaseId = %q, want %%SRCROOT%%", i, loc.ArtifactLocation.URIBaseID)
		}
		if strings.Contains(loc.ArtifactLocation.URI, "\\") {
			t.Errorf("results[%d]: uri %q contains backslashes", i, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine < 1 {
			t.Errorf("results[%d]: startLine = %d, want >= 1", i, loc.Region.StartLine)
		}
	}

	// Relativization: in-module paths lose the root, outside paths stay.
	if uri := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "internal/qbp/solve.go" {
		t.Errorf("in-module uri = %q, want internal/qbp/solve.go", uri)
	}
	if uri := run.Results[4].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "/outside/tree.go" {
		t.Errorf("outside-module uri = %q, want /outside/tree.go", uri)
	}
}
