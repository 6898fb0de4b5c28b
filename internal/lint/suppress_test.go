package lint

import (
	"strings"
	"testing"
)

func TestParseSuppression(t *testing.T) {
	cases := []struct {
		text      string
		names     []string
		match     bool
		malformed bool
	}{
		{"//lint:ignore float-equality tolerance is intentional", []string{"float-equality"}, true, false},
		{"//lint:ignore map-order-leak,shadow-err both are fine here", []string{"map-order-leak", "shadow-err"}, true, false},
		{"//lint:ignore map-order-leak,shadow-err,flat-bounds all three", []string{"map-order-leak", "shadow-err", "flat-bounds"}, true, false},
		{"//lint:ignore\tfloat-equality\ttab-separated reason", []string{"float-equality"}, true, false},
		{"// not a directive", nil, false, false},
		{"//lint:ignored float-equality near miss", nil, false, false},
		{"//lint:ignore", nil, true, true},            // no analyzer, no reason
		{"//lint:ignore shadow-err", nil, true, true}, // missing reason
		{"//lint:ignore no-such-analyzer because", nil, true, true},
		{"//lint:ignore float-equality,, double comma", nil, true, true},
		{"//lint:ignore ,shadow-err leading comma", nil, true, true},
	}
	for _, tc := range cases {
		names, match, err := parseSuppression(tc.text)
		if match != tc.match || (err != nil) != tc.malformed {
			t.Errorf("parseSuppression(%q) = match %v, err %v; want match %v, malformed %v",
				tc.text, match, err, tc.match, tc.malformed)
			continue
		}
		if len(names) != len(tc.names) {
			t.Errorf("parseSuppression(%q) names = %v, want %v", tc.text, names, tc.names)
			continue
		}
		for i := range names {
			if names[i] != tc.names[i] {
				t.Errorf("parseSuppression(%q) names = %v, want %v", tc.text, names, tc.names)
			}
		}
	}
}

// FuzzParseSuppression checks the directive parser's invariants on
// arbitrary comment text: it never panics, non-matches carry no error and
// no names, and names are only returned for well-formed directives whose
// every element is a registered analyzer.
func FuzzParseSuppression(f *testing.F) {
	seeds := []string{
		"//lint:ignore float-equality tolerance is intentional",
		"//lint:ignore map-order-leak,shadow-err,flat-bounds multi reason",
		"//lint:ignore",
		"//lint:ignore shadow-err",
		"//lint:ignore  ",
		"//lint:ignore ,,, reason",
		"//lint:ignore ,shadow-err, dangling commas",
		"//lint:ignore float-equality,",
		"//lint:ignored float-equality near miss",
		"//lint:ignoreX y z",
		"//lint:ignore\t\tflat-bounds\ttabs",
		"//lint:ignore \x00 nul",
		"// ordinary comment",
		"",
		"//lint:ignore é–analyzer ünicode",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		names, match, err := parseSuppression(text)
		if !match {
			if err != nil || names != nil {
				t.Fatalf("non-match returned names=%v err=%v", names, err)
			}
			return
		}
		if !strings.HasPrefix(text, ignorePrefix) {
			t.Fatalf("match without %q prefix: %q", ignorePrefix, text)
		}
		if err != nil {
			if names != nil {
				t.Fatalf("malformed directive returned names %v", names)
			}
			return
		}
		if len(names) == 0 {
			t.Fatal("well-formed directive returned no names")
		}
		for _, n := range names {
			if !knownAnalyzer(n) {
				t.Fatalf("accepted unknown analyzer %q in %q", n, text)
			}
			if strings.ContainsAny(n, ", \t") {
				t.Fatalf("name %q not fully split", n)
			}
		}
		// Parsing is a pure function of the text.
		again, match2, err2 := parseSuppression(text)
		if match2 != match || (err2 == nil) != (err == nil) || len(again) != len(names) {
			t.Fatalf("parse not deterministic for %q", text)
		}
	})
}
