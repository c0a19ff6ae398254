package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/swarm"
)

// clusterShape sizes a networked workload: one loopback billboard service
// (a single server or a replica group) and the swarm, in one
// process. Every player is honest: Byzantine connections cost a goroutine
// and a socket each and are exercised on the engine workload instead.
type clusterShape struct {
	players  int
	m, good  int
	shards   int // lanes; 0 or 1 keeps the unsharded path
	mode     server.Mode
	replicas int // 0: one volatile server; 3: a durable quorum group
	groups   int // swarm connection groups, at most GOMAXPROCS
}

// searchTimeout bounds one networked search so a wedged service fails the
// search instead of hanging the run.
const searchTimeout = 60 * time.Second

const swarmToken = "perfbench"

// service is a started billboard service: a single server or a replica
// group whose leader serves clients.
type service struct {
	addr      string
	fallbacks []string
	srv       *server.Server // nil for a replica group
	nodes     []*server.ReplicaNode
}

// startService builds and starts the service described by sh, returning
// once it accepts clients.
func startService(sh clusterShape, u *object.Universe, reg *obs.Registry, dir string) (*service, error) {
	scfg := server.Config{
		Universe:   u,
		Tokens:     make([]string, sh.players),
		Alpha:      1,
		Beta:       u.Beta(),
		Shards:     sh.shards,
		SwarmToken: swarmToken,
		Mode:       sh.mode,
		Metrics:    reg,
	}
	if sh.replicas <= 1 {
		srv, err := server.New(scfg)
		if err != nil {
			return nil, err
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, err
		}
		return &service{addr: addr, srv: srv}, nil
	}

	// A durable quorum group persists under dir. SnapshotEvery rotates the
	// journals so snapshots are part of the measured path.
	scfg.SnapshotEvery = 8
	svc := &service{}
	repLns := make([]net.Listener, sh.replicas)
	clientLns := make([]net.Listener, sh.replicas)
	peers := make([]string, sh.replicas)
	clients := make([]string, sh.replicas)
	for i := range repLns {
		var err error
		if repLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
			clientLns[i], err = net.Listen("tcp", "127.0.0.1:0")
		}
		if err != nil {
			for j := 0; j <= i; j++ {
				if repLns[j] != nil {
					repLns[j].Close()
				}
				if clientLns[j] != nil {
					clientLns[j].Close()
				}
			}
			return nil, err
		}
		peers[i] = repLns[i].Addr().String()
		clients[i] = clientLns[i].Addr().String()
	}
	for i := range repLns {
		node, err := server.StartReplica(server.ReplicaConfig{
			ID: i, Peers: peers, ClientAddrs: clients,
			Dir: filepath.Join(dir, fmt.Sprintf("replica-%d", i)),
			// A long election timeout keeps fsync stalls from deposing the
			// leader mid-search; the group never fails over on purpose here.
			HeartbeatEvery:  10 * time.Millisecond,
			ElectionTimeout: time.Second,
			RepListener:     repLns[i], ClientListener: clientLns[i],
		}, scfg)
		if err != nil {
			svc.close()
			for j := i; j < len(repLns); j++ {
				repLns[j].Close()
				clientLns[j].Close()
			}
			return nil, err
		}
		svc.nodes = append(svc.nodes, node)
	}
	svc.addr, svc.fallbacks = clients[0], clients[1:]
	deadline := time.Now().Add(10 * time.Second)
	for svc.leader() == nil {
		if time.Now().After(deadline) {
			svc.close()
			return nil, fmt.Errorf("no leader elected within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return svc, nil
}

// leader returns the server that currently serves clients.
func (s *service) leader() *server.Server {
	if s.srv != nil {
		return s.srv
	}
	for _, n := range s.nodes {
		if leading, _ := n.Leader(); leading {
			if srv := n.Server(); srv != nil {
				return srv
			}
		}
	}
	return nil
}

func (s *service) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}

// runCluster performs one networked search. dir is the directory for
// a durable group's stores; it is removed before returning. With tr non-nil
// the service and swarm record into a fresh registry, the swarm dials
// through a counting dialer, and the search's layer sample is filled.
func runCluster(sh clusterShape, seed uint64, dir string, tr *tracer) search {
	s := search{seed: seed, players: sh.players}
	defer os.RemoveAll(dir)
	var (
		root int
		reg  *obs.Registry
	)
	before := readProc()
	t0 := time.Now()
	if tr != nil {
		root = tr.open("search", 0, t0)
		reg = obs.NewRegistry()
	}
	u, err := object.NewPlanted(object.Planted{M: sh.m, Good: sh.good}, rng.New(seed).Split(1))
	if err != nil {
		s.fail("universe: %v", err)
		return s
	}
	svc, err := startService(sh, u, reg, dir)
	if err != nil {
		s.fail("start service: %v", err)
		return s
	}
	defer svc.close()
	s.setup = time.Since(t0)

	t1 := time.Now()
	clock := newRoundClock(t1)
	cfg := swarm.Config{
		Addr: svc.addr, Fallbacks: svc.fallbacks,
		From: 0, To: sh.players, Token: swarmToken,
		Seed: seed, Groups: sh.groups,
		Observer: clock, Metrics: reg,
	}
	var (
		cd *countingDialer
		rs *roundSpans
	)
	if tr != nil {
		tr.add("setup", root, t0, t1)
		rs = newRoundSpans(tr, root, t1)
		cd = &countingDialer{tr: tr, parent: root}
		cfg.Client = client.Options{Dialer: cd.dial}
		cfg.Observer = sim.MultiObserver(clock, rs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), searchTimeout)
	res, err := swarm.Run(ctx, cfg)
	cancel()
	s.wall = time.Since(t1)
	end := time.Now()
	clock.fill(&s)
	if err != nil {
		s.fail("swarm: %v", err)
		return s
	}
	for _, p := range res.Players {
		s.probes += int64(p.Probes)
		s.playerRounds += int64(p.Rounds)
	}
	if res.Found != sh.players || res.TimedOut != 0 {
		s.fail("%d of %d players found a good object, %d timed out", res.Found, sh.players, res.TimedOut)
	}
	srv := svc.leader()
	if srv == nil {
		s.fail("no leader at the end of the search")
		return s
	}
	// Exactly-once billing: the probes the server charged each player equal
	// the probes the swarm issued for it.
	charged, _, _, _ := srv.Stats()
	for _, p := range res.Players {
		if charged[p.Player] != p.Probes {
			s.fail("player %d: server charged %d probes, swarm issued %d (first of possibly more)",
				p.Player, charged[p.Player], p.Probes)
			break
		}
	}
	s.digest = digestOf(srv.Digest())

	if tr != nil {
		rs.finish(end)
		tr.add("swarm.run", root, t1, end)
		tr.close(root, end)
		tt := cd.totals()
		if tt.decodeErr != nil {
			s.fail("wire replay: %v", tt.decodeErr)
		}
		l := layerSample{
			"wall_s":          s.wall.Seconds(),
			"rounds":          float64(len(s.gaps)),
			"player_rounds":   float64(s.playerRounds),
			"group_s":         float64(sh.groups) * s.wall.Seconds(),
			"requests":        float64(srv.RequestsServed()),
			"wire_up_bytes":   float64(tt.up),
			"wire_down_bytes": float64(tt.down),
			"wire_frames_up":  float64(tt.frames),
			"wire_decode_s":   float64(tt.decodeNs) / 1e9,
			"wire_write_s":    float64(tt.writeNs) / 1e9,
		}
		for _, g := range s.gaps {
			l["round_gap_s"] += g / 1e3
		}
		if sh.replicas > 1 {
			l["journal_bytes"] = float64(dirSize(filepath.Join(dir, "replica-0")))
		}
		addRegistry(l, reg)
		addProc(l, before, readProc(), time.Since(t0))
		s.layers = l
	}
	return s
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // a file rotated away mid-walk is simply not counted
		}
		if info, err := d.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
