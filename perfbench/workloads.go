package main

import "repro/internal/server"

// workload is one named input shape. search performs one search on a seed
// (traced when tr is non-nil); reference, when set, computes the digest
// the workload's searches must reproduce on the same seed.
type workload struct {
	name      string
	why       string
	seeds     int // distinct search seeds a run cycles through
	search    func(seed uint64, dir string, tr *tracer) search
	reference func(seed uint64, dir string) search
}

var (
	engineW = engineShape{n: 50_000, alpha: 0.3, m: 65_536, good: 4}
	wideW   = clusterShape{players: 200_000, m: 1024, good: 4, groups: 2}
	deepW   = clusterShape{players: 10_000, m: 65_536, good: 2, shards: 2, mode: server.ModeEpoch, groups: 2}
	durW    = clusterShape{players: 2_000, m: 8192, good: 4, shards: 2, replicas: 3, groups: 2}
)

func clusterSearch(sh clusterShape) func(uint64, string, *tracer) search {
	return func(seed uint64, dir string, tr *tracer) search { return runCluster(sh, seed, dir, tr) }
}

var workloads = []workload{
	{
		name:  "engine",
		why:   "in-process sim.Engine, DISTILL vs a colluding Byzantine majority: all time in sim/core/billboard/adversary, none in the network stack",
		seeds: 32,
		search: func(seed uint64, _ string, tr *tracer) search {
			return runEngine(engineW, seed, tr)
		},
	},
	{
		name:   "wide",
		why:    "unsharded sync server, 200k players, dense good set: throughput-bound and write-heavy, per-player swarm and wire cost",
		seeds:  12,
		search: clusterSearch(wideW),
	},
	{
		name:   "deep",
		why:    "two-lane epoch mode, sparse good set: latency-bound and read-heavy, many rounds paced by stamps, polls and closure",
		seeds:  16,
		search: clusterSearch(deepW),
		reference: func(seed uint64, dir string) search {
			sync := deepW
			sync.mode = server.ModeSync
			return runCluster(sync, seed, dir, nil)
		},
	},
	{
		name:   "durable",
		why:    "3-replica quorum group with fsync'd journals, two lanes, sync mode: per-round journal writes, fsync and follower acks",
		seeds:  32,
		search: clusterSearch(durW),
	},
}

// perLayerNames are the per-layer metrics the result line carries in a
// traced run: the ones every workload's path emits. The traced run prints
// the full per-layer table, with absent metrics and their reasons, above
// the result line.
var perLayerNames = []string{
	"billboard.posts_per_round",
	"proc.cpu_util",
	"proc.gc_cpu_share",
	"proc.alloc_bytes_per_player_round",
	"round.unattributed_share",
	"bench.trace_overhead_share",
}
