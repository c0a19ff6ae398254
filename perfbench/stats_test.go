package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 9, ok: false},
		{n: 39, ok: false},
		{n: 40, p: 75, beyond: 10, ok: true},
		{n: 99, p: 75, beyond: 24, ok: true},
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 199, p: 90, beyond: 19, ok: true},
		{n: 200, p: 95, beyond: 10, ok: true},
		{n: 999, p: 95, beyond: 49, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 10000, p: 99.9, beyond: 10, ok: true},
	}
	for _, c := range cases {
		p, beyond, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && (p != c.p || beyond != c.beyond)) {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d beyond, %v",
				c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Errorf("an empty sample must have no median or mean")
	}
}

func TestValidateNames(t *testing.T) {
	good := []string{"setup_s", "server.commit_phase_us.freeze", "p99-ms", "9lives"}
	if err := validateNames(good, maxEndToEnd); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/no", "brace{x}", strings.Repeat("a", 65)} {
		if err := validateNames([]string{bad}, maxEndToEnd); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := validateNames([]string{"a", "a"}, maxEndToEnd); err == nil {
		t.Errorf("duplicate name accepted")
	}
	many := make([]string, maxEndToEnd+1)
	for i := range many {
		many[i] = "m" + strings.Repeat("x", i)
	}
	if err := validateNames(many, maxEndToEnd); err == nil {
		t.Errorf("%d end-to-end names accepted, limit is %d", len(many), maxEndToEnd)
	}
	if err := validateNames(many, maxPerLayer); err != nil {
		t.Errorf("%d per-layer names rejected: %v", len(many), err)
	}
	if err := validateNames(nil, maxPerLayer); err == nil {
		t.Errorf("empty list accepted")
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program in
// step: the workloads it lists exist, the end-to-end metrics are exactly
// the ones a run reports, and the per-layer metrics exactly the ones the
// result line of a traced run carries.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		wl = append(wl, w.Name)
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(wl), len(workloads))
	}

	sample := search{setup: 1, wall: 1, gaps: []float64{1, 2}, players: 1, playerRounds: 2, probes: 1, heapPeak: 1}
	units := map[string]string{}
	var e2e []string
	for _, m := range endToEnd([]search{sample}) {
		units[m.Name] = m.Unit
		e2e = append(e2e, m.Name)
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEndNames) {
		t.Errorf("a run reports %v, endToEndNames lists %v", e2e, endToEndNames)
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, a run reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s [%s]: a run reports unit %q (present: %v)", m.Name, m.Unit, u, ok)
		}
	}

	if err := validateNames(perLayerNames, maxPerLayer); err != nil {
		t.Error(err)
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerNames))
	}
	layerUnits := map[string]string{}
	for _, m := range deriveLayers(engineSample(), 2, 0) {
		layerUnits[m.Name] = m.Unit
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayerNames) && m.Name != perLayerNames[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %q, program %q", i, m.Name, perLayerNames[i])
		}
		if u := layerUnits[m.Name]; u != m.Unit {
			t.Errorf("per-layer metric %s [%s]: a traced run reports unit %q", m.Name, m.Unit, u)
		}
	}
}
