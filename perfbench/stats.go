package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample has no quantile: NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates for a timing's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile of tailPercentiles that
// leaves at least ten of n samples beyond it, so a tail figure never rests
// on a handful of outliers. ok is false when even the lowest candidate
// lacks ten samples beyond it.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9)) // 1e-9: 100-99.9 is not exact
		if beyond >= 10 {
			return p, beyond, true
		}
	}
	return 0, 0, false
}

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Limits on the metric lists a run may report.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

// validateNames checks a metric list against the naming rule, the list's
// size limit, and uniqueness.
func validateNames(names []string, limit int) error {
	if len(names) == 0 || len(names) > limit {
		return fmt.Errorf("%d metrics, want 1 to %d", len(names), limit)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !metricName.MatchString(n) {
			return fmt.Errorf("metric name %q does not match %s", n, metricName)
		}
		if seen[n] {
			return fmt.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	return nil
}
