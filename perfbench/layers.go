package main

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// layerSample holds the raw sums one traced search contributes: span
// totals, transport counts, process counters, and every obs registry series
// under a "reg:" prefix. Samples of a run's traced searches are summed
// before any ratio is taken.
type layerSample map[string]float64

func (l layerSample) add(o layerSample) {
	for k, v := range o {
		l[k] += v
	}
}

// addRegistry copies a registry snapshot into l. A nil registry adds
// nothing.
func addRegistry(l layerSample, reg *obs.Registry) {
	for name, v := range reg.Snapshot() {
		l["reg:"+name] += v
	}
}

// has reports whether the path emitted a series at all, as distinct from
// emitting it with the value zero.
func (l layerSample) has(key string) bool {
	_, ok := l[key]
	return ok
}

// layerMetric is one per-layer figure of a traced run. A metric whose
// source the workload's path does not emit carries the reason in Absent and
// no value, never a zero.
type layerMetric struct {
	Name   string
	Unit   string
	Value  float64
	Absent string
}

// deriver turns a summed layerSample into layer metrics, recording for
// each either a value or the reason it is absent.
type deriver struct {
	l   layerSample
	out []layerMetric
}

func (d *deriver) set(name, unit string, v float64) {
	d.out = append(d.out, layerMetric{Name: name, Unit: unit, Value: v})
}

func (d *deriver) absent(name, unit, format string, args ...any) {
	d.out = append(d.out, layerMetric{Name: name, Unit: unit, Absent: fmt.Sprintf(format, args...)})
}

// ratio sets name to num/den when the series num exists and den is
// positive; otherwise the metric is absent with why.
func (d *deriver) ratio(name, unit, num string, den, scale float64, why string) {
	if !d.l.has(num) || den <= 0 {
		d.absent(name, unit, "%s", why)
		return
	}
	d.set(name, unit, d.l[num]/den*scale)
}

// histMean sets name to a histogram's mean (sum/count, scaled) when it
// observed anything; otherwise the metric is absent with why.
func (d *deriver) histMean(name, unit, hist string, scale float64, why string) {
	if d.l[hist+"_count"] <= 0 {
		d.absent(name, unit, "%s", why)
		return
	}
	d.set(name, unit, d.l[hist+"_sum"]/d.l[hist+"_count"]*scale)
}

// shares is the attribution of a traced run's search wall time to layers.
// The named shares and Unattributed sum to 1 by construction: whatever
// the attributed spans do not cover is reported, not dropped.
type shares struct {
	Names        []string
	Values       []float64
	Unattributed float64
}

func attribute(wall float64, names []string, busy []float64) shares {
	sh := shares{Names: names, Unattributed: 1}
	for _, b := range busy {
		v := b / wall
		sh.Values = append(sh.Values, v)
		sh.Unattributed -= v
	}
	return sh
}

// deriveLayers maps a traced run's summed sample to the per-layer metrics.
// overhead is the traced run's tracing overhead (traced over untraced
// median search time, minus one), measured by the caller.
func deriveLayers(l layerSample, nproc int, overhead float64) []layerMetric {
	d := &deriver{l: l}
	wall, rounds, pr := l["wall_s"], l["rounds"], l["player_rounds"]
	networked := l.has("group_s")

	var sh shares
	if !networked {
		// Engine: the protocol and adversary spans, and the engine's own
		// time in its rounds (the billboard included). What is left is the
		// engine's time after the last round callback.
		self := l["round_gap_s"] - l["core_s"] - l["adversary_s"]
		sh = attribute(wall, []string{"core.probes_share", "adversary.act_share", "sim.self_share"},
			[]float64{l["core_s"], l["adversary_s"], self})
		d.ratio("sim.round_us", "us", "round_gap_s", rounds, 1e6, "no round completed")
		d.ratio("core.probes_ns_per_player", "ns", "core_s", l["core_players"], 1e9, "no probes")
		d.ratio("adversary.act_us_per_round", "us", "adversary_s", l["adversary_calls"], 1e6, "adversary never acted")
	} else {
		// Networked: per connection group, the time blocked in the round
		// barrier (or epoch wait), in socket writes, and in server request
		// handlers outside the barrier. Groups run concurrently, so each
		// is a share of groups × wall.
		handler := l["reg:server_request_seconds_sum"] - l["reg:server_barrier_wait_seconds_sum"]
		sh = attribute(l["group_s"], []string{"swarm.barrier_wait_share", "wire.write_share", "server.handler_share"},
			[]float64{l["reg:swarm_barrier_wait_seconds_sum"], l["wire_write_s"], handler})
		d.absent("sim.round_us", "us", "no sim.Engine on the networked path")
		d.absent("core.probes_ns_per_player", "ns", "the swarm drives core.Distill directly, not through sim.Protocol")
		d.absent("adversary.act_us_per_round", "us", "networked workloads run no Byzantine players")
	}
	for i, name := range sh.Names {
		d.set(name, "ratio", sh.Values[i])
	}

	if networked {
		d.ratio("swarm.ns_per_player_round", "ns", "wall_s", pr, 1e9, "no player-rounds")
		d.ratio("swarm.frames_per_round", "frames", "reg:swarm_frames_sent_total", rounds, 1, "no rounds")
		d.ratio("swarm.retries", "count", "reg:swarm_retries_total", 1, 1, "swarm registry absent")
		d.ratio("wire.bytes_up_per_player_round", "B", "wire_up_bytes", pr, 1, "no player-rounds")
		d.ratio("wire.bytes_down_per_player_round", "B", "wire_down_bytes", pr, 1, "no player-rounds")
		d.ratio("wire.frames_up_per_round", "frames", "wire_frames_up", rounds, 1, "no rounds")
		d.ratio("wire.decode_ns_per_frame", "ns", "wire_decode_s", l["wire_frames_up"], 1e9, "no upstream frames captured")
		d.ratio("server.requests_per_round", "requests", "requests", rounds, 1, "no rounds")
		d.histMean("server.request_us", "us", "reg:server_request_seconds", 1e6, "no request observed")
		d.histMean("server.barrier_wait_us", "us", "reg:server_barrier_wait_seconds", 1e6,
			"no blocking barrier: epoch mode paces by stamps and polls")
		hits, misses := l["reg:server_read_cache_hits_total"], l["reg:server_read_cache_misses_total"]
		if hits+misses > 0 {
			d.set("server.read_cache_hit_ratio", "ratio", hits/(hits+misses))
		} else {
			d.absent("server.read_cache_hit_ratio", "ratio", "no committed-round reads")
		}
		const onelane = "the one-lane path emits no commit histograms"
		d.histMean("server.commit_us", "us", "reg:server_commit_seconds", 1e6, onelane)
		for _, ph := range []string{"freeze", "admit", "journal", "seal"} {
			d.histMean("server.commit_phase_us."+ph, "us", `reg:server_commit_phase_seconds{phase="`+ph+`"}`, 1e6, onelane)
		}
		if l["reg:server_epoch_seals_total"] > 0 {
			d.ratio("server.epoch_seals_per_round", "seals", "reg:server_epoch_seals_total", rounds, 1, "")
		} else {
			d.absent("server.epoch_seals_per_round", "seals", "sync mode seals no epochs")
		}
		const single = "a single node has no quorum or elections"
		d.histMean("server.quorum_ack_us", "us", "reg:server_quorum_ack_seconds", 1e6, single)
		d.ratio("server.elections", "count", "reg:server_elections_total", 1, 1, single)
		d.ratio("server.failovers", "count", "reg:server_failovers_total", 1, 1, single)
		d.ratio("journal.bytes_per_round", "B", "journal_bytes", rounds, 1, "no persistence on this path")
		if l.has("journal_bytes") {
			d.ratio("journal.snapshots", "count", "reg:server_snapshots_total", 1, 1, "")
		} else {
			d.absent("journal.snapshots", "count", "no persistence on this path")
		}
	} else {
		const engine = "the in-process engine has no %s"
		for _, name := range []string{"swarm.ns_per_player_round", "swarm.frames_per_round", "swarm.retries"} {
			d.absent(name, "", engine, "swarm")
		}
		for _, name := range []string{"wire.bytes_up_per_player_round", "wire.bytes_down_per_player_round",
			"wire.frames_up_per_round", "wire.decode_ns_per_frame"} {
			d.absent(name, "", engine, "wire")
		}
		d.absent("server.*", "", engine, "server")
		d.absent("journal.*", "", engine, "journal")
	}

	d.ratio("billboard.posts_per_round", "posts", "reg:billboard_posts_total", rounds, 1, "no rounds")
	d.ratio("billboard.window_queries_per_player_round", "queries", "reg:billboard_window_queries_total", pr, 1, "no player-rounds")
	d.ratio("billboard.index_rebuilds", "count", "reg:billboard_index_rebuilds_total", 1, 1, "billboard registry absent")

	d.ratio("proc.cpu_util", "ratio", "proc_cpu_s", l["proc_wall_s"]*float64(nproc), 1, "no wall time")
	d.ratio("proc.gc_cpu_share", "ratio", "proc_gc_cpu_s", l["proc_all_cpu_s"], 1, "no CPU time")
	d.ratio("proc.alloc_bytes_per_player_round", "B", "proc_alloc_bytes", pr, 1, "no player-rounds")

	d.set("round.unattributed_share", "ratio", sh.Unattributed)
	if math.IsNaN(overhead) {
		d.absent("bench.trace_overhead_share", "ratio", "no untraced search to compare with")
	} else {
		d.set("bench.trace_overhead_share", "ratio", overhead)
	}
	return d.out
}
