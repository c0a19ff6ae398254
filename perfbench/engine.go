package main

import (
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// engineShape sizes the in-process workload: DISTILL against a colluding
// Byzantine majority on the sim.Engine, no networking at all.
type engineShape struct {
	n     int     // players
	alpha float64 // honest fraction
	m     int     // objects
	good  int     // good objects
}

// runEngine performs one engine search. With tr non-nil the protocol and
// adversary are wrapped to time their calls, the billboard records its
// counters in a fresh registry, and the search's layer sample is filled.
func runEngine(sh engineShape, seed uint64, tr *tracer) search {
	s := search{seed: seed}
	var root int
	if tr != nil {
		root = tr.open("search", 0, time.Now())
	}
	before := readProc()
	t0 := time.Now()
	u, err := object.NewPlanted(object.Planted{M: sh.m, Good: sh.good}, rng.New(seed).Split(1))
	if err != nil {
		s.fail("universe: %v", err)
		return s
	}
	clock := newRoundClock(t0)
	var (
		proto sim.Protocol  = core.NewDistill(core.Params{})
		adv   sim.Adversary = adversary.Collude{}
		obsv  sim.Observer  = clock
		tp    *timedProtocol
		ta    *timedAdversary
		rs    *roundSpans
	)
	if tr != nil {
		rs = newRoundSpans(tr, root, t0)
		tp = &timedProtocol{Protocol: proto, rs: rs}
		ta = &timedAdversary{Adversary: adv, rs: rs}
		proto, adv = tp, ta
		obsv = sim.MultiObserver(clock, rs)
	}
	eng, err := sim.NewEngine(sim.Config{
		Universe: u, Protocol: proto, Adversary: adv,
		N: sh.n, Alpha: sh.alpha, Seed: seed, Observer: obsv,
	})
	if err != nil {
		s.fail("engine: %v", err)
		return s
	}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
		eng.Board().SetMetrics(reg)
	}
	t1 := time.Now()
	s.setup = t1.Sub(t0)
	clock.last = t1
	res, err := eng.Run()
	s.wall = time.Since(t1)
	end := time.Now()
	clock.fill(&s)
	honest := eng.HonestView()
	s.players = len(honest)
	if err != nil {
		s.fail("run: %v", err)
		return s
	}
	var found int
	for _, p := range honest {
		s.probes += int64(res.Probes[p])
		if res.Success[p] {
			found++
			s.playerRounds += int64(res.SatisfiedRound[p] + 1)
		} else {
			s.playerRounds += int64(res.Rounds)
		}
	}
	if res.TimedOut || found != len(honest) {
		s.fail("%d of %d honest players found a good object (timed out: %v)", found, len(honest), res.TimedOut)
	}
	s.digest = digestOf(eng.Board().Digest())

	if tr != nil {
		rs.finish(end)
		tr.add("sim.run", root, t1, end)
		tr.add("setup", root, t0, t1)
		tr.close(root, end)
		l := layerSample{
			"wall_s":          s.wall.Seconds(),
			"rounds":          float64(len(s.gaps)),
			"player_rounds":   float64(s.playerRounds),
			"core_s":          tp.busy.Seconds(),
			"core_players":    float64(tp.players),
			"adversary_s":     ta.busy.Seconds(),
			"adversary_calls": float64(ta.calls),
		}
		for _, g := range s.gaps {
			l["round_gap_s"] += g / 1e3
		}
		addRegistry(l, reg)
		addProc(l, before, readProc(), time.Since(t0))
		s.layers = l
	}
	return s
}

// timedProtocol times sim.Protocol.Probes. Only the protocol is wrapped:
// wrapping the board reader would hide the billboard's fast paths and time
// a different code path.
type timedProtocol struct {
	sim.Protocol
	rs      *roundSpans
	busy    time.Duration
	players int64
}

func (p *timedProtocol) Probes(round int, active []int, dst []sim.Probe) []sim.Probe {
	start := time.Now()
	out := p.Protocol.Probes(round, active, dst)
	end := time.Now()
	p.busy += end.Sub(start)
	p.players += int64(len(active))
	p.rs.tr.add("core.probes", p.rs.cur, start, end)
	return out
}

// timedAdversary times sim.Adversary.Act.
type timedAdversary struct {
	sim.Adversary
	rs    *roundSpans
	busy  time.Duration
	calls int64
}

func (a *timedAdversary) Act(ctx *sim.AdvContext) {
	start := time.Now()
	a.Adversary.Act(ctx)
	end := time.Now()
	a.busy += end.Sub(start)
	a.calls++
	a.rs.tr.add("adversary.act", a.rs.cur, start, end)
}
