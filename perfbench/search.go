package main

import (
	"crypto/sha256"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// search is the record of one timed search: one universe, one service (or
// engine), driven until every honest player halts.
type search struct {
	seed    uint64
	setup   time.Duration // universe + engine, or universe + service until it accepts clients
	wall    time.Duration // Engine.Run / swarm.Run, call to return
	gaps    []float64     // ms per round: from the call, then between Observer callbacks
	players int           // honest players attempted
	// playerRounds sums, over honest players, the rounds each spent
	// searching; probes sums their probes.
	playerRounds int64
	probes       int64
	heapPeak     uint64 // bytes, sampled at each Observer callback
	digest       [32]byte
	problems     []string    // failed checks; the search's players count as failed
	layers       layerSample // traced searches only
}

func (s *search) fail(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// searchSeed derives the k-th search seed of a run from the workload seed.
// A run cycles through a list of such seeds; a seed searched again must
// reproduce the digest of its first search.
func searchSeed(seed uint64, k int) uint64 {
	return rng.New(seed).Split(uint64(k)).Uint64()
}

// roundClock is the Observer every search installs: it timestamps
// consecutive round callbacks and samples the heap at each.
type roundClock struct {
	last     time.Time
	gaps     []float64
	heap     []metrics.Sample
	heapPeak uint64
}

// newRoundClock returns a clock whose first round runs from start, the
// instant the search was called: the first round's handshakes and set-up
// work are part of the search, and on some paths its slowest round.
func newRoundClock(start time.Time) *roundClock {
	return &roundClock{
		last: start,
		heap: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

func (c *roundClock) ObserveRound(sim.RoundStats) {
	now := time.Now()
	c.gaps = append(c.gaps, float64(now.Sub(c.last).Nanoseconds())/1e6)
	c.last = now
	metrics.Read(c.heap)
	if v := c.heap[0].Value.Uint64(); v > c.heapPeak {
		c.heapPeak = v
	}
}

func (c *roundClock) fill(s *search) {
	s.gaps = c.gaps
	s.heapPeak = c.heapPeak
}

func digestOf(b []byte) [32]byte { return sha256.Sum256(b) }
