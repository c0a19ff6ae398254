package main

import (
	"math"
	"strings"
	"testing"
)

// engineSample is a traced engine run's summed sample: 1s of searching,
// 0.9s of it inside round intervals, of which the protocol took 0.3s and
// the adversary 0.1s.
func engineSample() layerSample {
	return layerSample{
		"wall_s": 1, "rounds": 20, "player_rounds": 1000, "round_gap_s": 0.9,
		"core_s": 0.3, "core_players": 1000, "adversary_s": 0.1, "adversary_calls": 20,
		"reg:billboard_posts_total": 400, "reg:billboard_window_queries_total": 50,
		"reg:billboard_index_rebuilds_total": 0,
		"proc_wall_s":                        1.2, "proc_cpu_s": 1.2, "proc_gc_cpu_s": 0.1, "proc_all_cpu_s": 1.2, "proc_alloc_bytes": 1e6,
	}
}

// clusterSample is a traced one-lane, single-node, sync-mode run: no
// commit histograms, no quorum, no epochs, no journal.
func clusterSample() layerSample {
	return layerSample{
		"wall_s": 2, "rounds": 6, "player_rounds": 6000, "group_s": 4, "round_gap_s": 2,
		"requests": 60, "wire_up_bytes": 6e5, "wire_down_bytes": 3e5, "wire_frames_up": 40,
		"wire_decode_s": 0.004, "wire_write_s": 0.1,
		"reg:swarm_frames_sent_total": 40, "reg:swarm_retries_total": 0,
		"reg:swarm_barrier_wait_seconds_sum": 1.5, "reg:swarm_barrier_wait_seconds_count": 12,
		"reg:server_request_seconds_sum": 2.0, "reg:server_request_seconds_count": 60,
		"reg:server_barrier_wait_seconds_sum": 1.2, "reg:server_barrier_wait_seconds_count": 12,
		"reg:server_read_cache_hits_total": 3, "reg:server_read_cache_misses_total": 1,
		"reg:server_commit_seconds_sum": 0, "reg:server_commit_seconds_count": 0,
		"reg:server_epoch_seals_total": 0, "reg:server_snapshots_total": 0,
		"reg:billboard_posts_total": 6000, "reg:billboard_window_queries_total": 12,
		"reg:billboard_index_rebuilds_total": 0,
		"proc_wall_s":                        2.1, "proc_cpu_s": 3, "proc_gc_cpu_s": 0.3, "proc_all_cpu_s": 3, "proc_alloc_bytes": 6e6,
	}
}

func byName(ms []layerMetric) map[string]layerMetric {
	out := make(map[string]layerMetric, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

func TestSharesAndUnattributedSumToOne(t *testing.T) {
	for name, l := range map[string]layerSample{"engine": engineSample(), "cluster": clusterSample()} {
		var sum float64
		var shares int
		for _, m := range deriveLayers(l, 2, 0.05) {
			if strings.HasSuffix(m.Name, "_share") && m.Absent == "" &&
				!strings.HasPrefix(m.Name, "proc.") && !strings.HasPrefix(m.Name, "bench.") {
				sum += m.Value
				shares++
			}
		}
		if shares < 4 || math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: %d attributed shares plus round.unattributed_share sum to %g, want 1", name, shares, sum)
		}
	}
}

func TestEngineAttribution(t *testing.T) {
	m := byName(deriveLayers(engineSample(), 2, 0.05))
	want := map[string]float64{
		"core.probes_share":          0.3,
		"adversary.act_share":        0.1,
		"sim.self_share":             0.5, // 0.9 in rounds minus core and adversary
		"round.unattributed_share":   0.1, // after the last round callback
		"sim.round_us":               45000,
		"core.probes_ns_per_player":  3e5,
		"adversary.act_us_per_round": 5000,
		"proc.cpu_util":              0.5,
	}
	for name, v := range want {
		if got := m[name]; got.Absent != "" || math.Abs(got.Value-v) > 1e-9*math.Max(1, v) {
			t.Errorf("%s = %+v, want %g", name, got, v)
		}
	}
}

func TestAbsentSeriesAreNamedNotZero(t *testing.T) {
	m := byName(deriveLayers(clusterSample(), 2, math.NaN()))
	for _, name := range []string{
		"server.commit_us", "server.commit_phase_us.freeze", "server.epoch_seals_per_round",
		"server.quorum_ack_us", "server.elections", "server.failovers",
		"journal.bytes_per_round", "journal.snapshots",
		"core.probes_ns_per_player", "bench.trace_overhead_share",
	} {
		got, ok := m[name]
		if !ok || got.Absent == "" || got.Value != 0 {
			t.Errorf("%s = %+v (listed %v), want absent with a reason", name, got, ok)
		}
	}
	for name, v := range map[string]float64{
		"server.barrier_wait_us":         1e5,
		"server.read_cache_hit_ratio":    0.75,
		"swarm.retries":                  0, // emitted and zero: a true zero
		"wire.decode_ns_per_frame":       1e5,
		"wire.bytes_up_per_player_round": 100,
	} {
		if got := m[name]; got.Absent != "" || math.Abs(got.Value-v) > 1e-6 {
			t.Errorf("%s = %+v, want %g", name, got, v)
		}
	}
}

// TestResultLineMetricsApplyToEveryPath checks that the per-layer metrics
// the result line carries have a value on the engine and networked paths
// alike.
func TestResultLineMetricsApplyToEveryPath(t *testing.T) {
	for name, l := range map[string]layerSample{"engine": engineSample(), "cluster": clusterSample()} {
		m := byName(deriveLayers(l, 2, 0.05))
		for _, n := range perLayerNames {
			if got, ok := m[n]; !ok || got.Absent != "" {
				t.Errorf("%s: result-line metric %s = %+v (listed %v)", name, n, got, ok)
			}
		}
	}
}
