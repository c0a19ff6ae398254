// Command perfbench is the repository's benchmark: one DISTILL search,
// measured end to end and split by layer, on four workloads that stress
// different layers (see README.md).
//
//	perfbench --workload deep --seed 1 --seconds 20 --trace 0
//
// It prints one line per metric with its unit, then, as the last line of
// standard output, a JSON object with the keys correct, attempted, failed
// and metrics. With --trace 0 the metrics are the end-to-end set, measured
// with tracing off; with --trace 1 they are the per-layer set of a traced
// run, whose spans are written under --out when it ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Uint64("seed", 1, "workload seed; every input derives from it")
		seconds = fs.Int("seconds", 20, "how long to measure")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out     = fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans and durable stores")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateNames(endToEndNames, maxEndToEnd); err != nil {
		fmt.Fprintf(stderr, "perfbench: end-to-end metrics: %v\n", err)
		return 1
	}
	if err := validateNames(perLayerNames, maxPerLayer); err != nil {
		fmt.Fprintf(stderr, "perfbench: per-layer metrics: %v\n", err)
		return 1
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seconds >= 1, --trace 0 or 1\n", workloadNames())
		return 2
	}
	tmp := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	r := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, tmp)
	for _, p := range r.problems {
		fmt.Fprintf(stdout, "FAILED CHECK %s\n", p)
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(stdout, "%s seed=%d searches=%d players attempted=%d failed=%d failed_frac=%.6f ratio\n",
		w.name, *seed, r.searches, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	if *trace == 0 {
		for _, m := range r.endToEnd {
			fmt.Fprintf(stdout, "%-22s %14.6f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
			res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
		for _, n := range r.notes {
			fmt.Fprintln(stdout, n)
		}
	} else {
		inJSON := map[string]bool{}
		for _, n := range perLayerNames {
			inJSON[n] = true
		}
		for _, m := range r.layers {
			if m.Absent != "" {
				fmt.Fprintf(stdout, "%-40s %14s %-8s absent: %s\n", m.Name, "-", m.Unit, m.Absent)
				continue
			}
			fmt.Fprintf(stdout, "%-40s %14.6f %-8s\n", m.Name, m.Value, m.Unit)
			if inJSON[m.Name] {
				res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
			}
		}
		for _, n := range perLayerNames {
			if _, ok := res.Metrics[n]; !ok {
				res.Correct = false
				fmt.Fprintf(stdout, "FAILED CHECK per-layer metric %s has no value\n", n)
			}
		}
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := r.tracer.write(spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s (%d)\n", spans, len(r.tracer.spans))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// e2eMetric is one end-to-end figure with its unit and a note (sample
// counts) for the human-readable lines.
type e2eMetric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// runSummary is what measure hands back to run.
type runSummary struct {
	searches          int
	attempted, failed int
	problems          []string
	endToEnd          []e2eMetric
	notes             []string // human-readable figures not on the result line
	layers            []layerMetric
	tracer            *tracer
}

// measure runs workload w for about d: a warm-up search, then timed
// searches cycling through w.seeds search seeds until d has passed. In a
// traced run, traced and untraced searches alternate on the same seeds,
// so the tracing overhead is measured in the same run.
func measure(w workload, seed uint64, d time.Duration, traced bool, tmp string) runSummary {
	var (
		r        runSummary
		digests  = map[uint64][32]byte{}
		refs     = map[uint64][32]byte{}
		measured []search
		plain    []search // a traced run's untraced searches
		sample   = layerSample{}
	)
	if traced {
		r.tracer = newTracer()
	}
	dir := func(i int) string { return filepath.Join(tmp, fmt.Sprintf("search-%d", i)) }
	check := func(s *search) {
		if len(s.problems) > 0 {
			return
		}
		if prev, ok := digests[s.seed]; !ok {
			digests[s.seed] = s.digest
		} else if prev != s.digest {
			s.fail("seed %d: board digest %x differs from the same seed's earlier %x", s.seed, s.digest[:6], prev[:6])
		}
		if ref, ok := refs[s.seed]; ok && ref != s.digest {
			s.fail("seed %d: epoch digest %x differs from the sync-mode digest %x", s.seed, s.digest[:6], ref[:6])
		}
	}
	record := func(s search) {
		r.attempted += s.players
		if len(s.problems) > 0 {
			r.failed += s.players
			for _, p := range s.problems {
				r.problems = append(r.problems, fmt.Sprintf("%s search seed %d: %s", w.name, s.seed, p))
			}
		}
	}

	// Set-up outside the timed window: each seed's sync-mode reference
	// digest where the workload has one, then one warm-up search.
	seeds := make([]uint64, w.seeds)
	for k := range seeds {
		seeds[k] = searchSeed(seed, k)
		if w.reference != nil {
			ref := w.reference(seeds[k], dir(-1-k))
			record(ref)
			if len(ref.problems) == 0 {
				refs[seeds[k]] = ref.digest
			}
		}
	}
	runtime.GC()
	warm := w.search(seeds[0], dir(0), nil)
	check(&warm)
	record(warm)

	// An untraced run searches every seed at least once, so the seed-driven
	// figures (probes_per_player above all) always average the same
	// universes for a given workload seed.
	least := minSearches
	if !traced {
		least = max(least, w.seeds)
	}
	start := time.Now()
	for i := 0; time.Since(start) < d || r.searches < least; i++ {
		k := i % w.seeds
		var tr *tracer
		if traced {
			k = (i / 2) % w.seeds
			if i%2 == 0 {
				tr = r.tracer
				tr.beginSearch(i + 1)
			}
		}
		// Each search starts from a collected heap, so no search pays for
		// the garbage of the one before it.
		runtime.GC()
		s := w.search(seeds[k], dir(i+1), tr)
		check(&s)
		record(s)
		r.searches++
		if len(s.problems) > 0 {
			continue
		}
		if traced && tr == nil {
			plain = append(plain, s)
			continue
		}
		measured = append(measured, s)
		if s.layers != nil {
			sample.add(s.layers)
		}
	}

	if !traced {
		r.endToEnd = endToEnd(measured)
		r.notes = roundNotes(measured)
		return r
	}
	overhead := math.NaN()
	if len(plain) > 0 && len(measured) > 0 {
		overhead = median(walls(measured))/median(walls(plain)) - 1
	}
	r.layers = deriveLayers(sample, runtime.GOMAXPROCS(0), overhead)
	return r
}

// roundNotes gives the pooled round-time distribution for the
// human-readable lines: its median, and its highest percentile with at
// least ten samples beyond it, with the sample count. Pooled over searches
// of different universes, these move with the universes drawn, so the
// result line carries the steadier mean and median-of-slowest instead.
func roundNotes(ss []search) []string {
	var gaps []float64
	for _, s := range ss {
		gaps = append(gaps, s.gaps...)
	}
	notes := []string{fmt.Sprintf("round_ms_p50 %.6f ms (n=%d)", median(gaps), len(gaps))}
	if p, beyond, ok := tailPercentile(len(gaps)); ok {
		notes = append(notes, fmt.Sprintf("round_ms_p%g %.6f ms (n=%d, %d beyond)", p, quantile(gaps, p/100), len(gaps), beyond))
	} else {
		notes = append(notes, fmt.Sprintf("round_ms tail: n=%d, no percentile has 10 samples beyond it", len(gaps)))
	}
	return notes
}

// minSearches is the fewest timed searches a run makes, whatever --seconds
// says, so every median rests on more than one search.
const minSearches = 3

func walls(ss []search) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

// endToEndNames are the end-to-end metrics, in the order endToEnd reports
// them.
var endToEndNames = []string{
	"setup_s", "search_s_p50", "player_rounds_per_s", "round_ms_mean",
	"round_ms_max_p50", "probes_per_player", "heap_peak_mb",
}

// endToEnd computes the end-to-end metrics over a run's timed searches.
func endToEnd(ss []search) []e2eMetric {
	if len(ss) == 0 {
		return nil
	}
	var (
		setups, heaps, gaps, maxes []float64
		wall                       float64
		playerRounds               int64
		seen                       = map[uint64]bool{}
		perSeed                    []float64 // mean probes per player, one per seed
	)
	for _, s := range ss {
		setups = append(setups, s.setup.Seconds())
		maxes = append(maxes, quantile(s.gaps, 1))
		heaps = append(heaps, float64(s.heapPeak)/(1<<20))
		gaps = append(gaps, s.gaps...)
		wall += s.wall.Seconds()
		playerRounds += s.playerRounds
		// A seed's probes are a function of the seed, so each seed counts
		// once however often the run searched it.
		if !seen[s.seed] {
			seen[s.seed] = true
			perSeed = append(perSeed, float64(s.probes)/float64(s.players))
		}
	}
	n := len(ss)
	return []e2eMetric{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", n)},
		{"search_s_p50", "s", median(walls(ss)), fmt.Sprintf("median of %d searches", n)},
		{"player_rounds_per_s", "1/s", float64(playerRounds) / wall, fmt.Sprintf("%d player-rounds", playerRounds)},
		{"round_ms_mean", "ms", mean(gaps), fmt.Sprintf("n=%d rounds", len(gaps))},
		{"round_ms_max_p50", "ms", median(maxes), fmt.Sprintf("median of %d per-search slowest rounds", n)},
		{"probes_per_player", "probes", mean(perSeed), fmt.Sprintf("mean over %d seeds", len(perSeed))},
		{"heap_peak_mb", "MB", median(heaps), fmt.Sprintf("median of %d per-search peaks", n)},
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
