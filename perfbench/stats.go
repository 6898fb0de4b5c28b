package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, with its value by the nearest-rank rule. With fewer than
// twenty samples no percentile qualifies and the maximum is returned as
// percentile 100.
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		if rank := nearestRank(p, n); n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 100, s[n-1]
}

// nearestRank is the 1-based position of the p-th percentile among n
// sorted samples.
func nearestRank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9))) // tolerate binary rounding of p
}

// percentile returns the nearest-rank p-th percentile of xs; 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[nearestRank(p, len(xs))-1]
}

// tailLabel names a tail percentile for reports: "p95", "p99.9", "max".
func tailLabel(pct float64) string {
	if pct >= 100 {
		return "max"
	}
	return fmt.Sprintf("p%g", pct)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetric reports whether a metric name and unit are printable: a name
// starts with a letter or digit and has at most 64 letters, digits, '_',
// '.' and '-'; a unit has 1–16 letters, digits, '_', '/', '%', '.' and '-';
// the value must be finite.
func checkMetric(name string, m metric) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q is not 1–64 letters, digits, '_', '.' or '-' starting with a letter or digit", name)
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: unit %q is not 1–16 letters, digits, '_', '/', '%%', '.' or '-'", name, m.Unit)
	}
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return fmt.Errorf("metric %s: value %v is not finite", name, m.Value)
	}
	return nil
}
