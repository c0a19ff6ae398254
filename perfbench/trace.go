package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself carries no tracing). Times are nanoseconds since
// the run started; Parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Search int    `json:"search"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; write dumps them when the
// run ends. It is safe for concurrent use: the counting dialer's
// connections record spans from the swarm's goroutines.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	search int // id of the search the next spans belong to
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.t0).Nanoseconds() }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Search: t.search,
		Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, start time.Time) int {
	return t.add(name, parent, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.at(end)
}

func (t *tracer) beginSearch(k int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.search = k
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// roundSpans is the Observer a traced search installs beside its
// roundClock: each callback closes the open round span and opens the next,
// so spans recorded during a round can name it as their parent.
type roundSpans struct {
	tr     *tracer
	parent int
	cur    int
}

func newRoundSpans(tr *tracer, parent int, start time.Time) *roundSpans {
	return &roundSpans{tr: tr, parent: parent, cur: tr.open("round", parent, start)}
}

func (r *roundSpans) ObserveRound(sim.RoundStats) {
	now := time.Now()
	r.tr.close(r.cur, now)
	r.cur = r.tr.open("round", r.parent, now)
}

func (r *roundSpans) finish(end time.Time) { r.tr.close(r.cur, end) }

// countingDialer wraps net.Dial for the traced run: every connection counts
// its bytes each way, times its writes as wire spans, and captures the
// upstream byte stream so it can be replayed through the wire decoder.
type countingDialer struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	conns  []*countingConn
}

func (d *countingDialer) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, d: d}
	d.mu.Lock()
	d.conns = append(d.conns, cc)
	d.mu.Unlock()
	return cc, nil
}

type countingConn struct {
	net.Conn
	d        *countingDialer
	up, down atomic.Int64
	writeNs  atomic.Int64
	mu       sync.Mutex
	captured bytes.Buffer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.up.Add(int64(n))
	c.writeNs.Add(end.Sub(start).Nanoseconds())
	c.mu.Lock()
	c.captured.Write(p[:n])
	c.mu.Unlock()
	c.d.tr.add("wire.write", c.d.parent, start, end)
	return n, err
}

// transportTotals sums the dialer's connections and replays each captured
// upstream stream through wire.NewStreamDecoder, one decoder per
// connection as the server would run it.
type transportTotals struct {
	up, down, frames int64
	writeNs          int64
	decodeNs         int64
	decodeErr        error
}

func (d *countingDialer) totals() transportTotals {
	d.mu.Lock()
	conns := append([]*countingConn(nil), d.conns...)
	d.mu.Unlock()
	var t transportTotals
	for _, c := range conns {
		t.up += c.up.Load()
		t.down += c.down.Load()
		t.writeNs += c.writeNs.Load()
		c.mu.Lock()
		stream := c.captured.Bytes()
		c.mu.Unlock()
		dec := wire.NewStreamDecoder(bytes.NewReader(stream))
		start := time.Now()
		for {
			var req wire.Request
			if err := dec.DecodeRequest(&req); err != nil {
				if !errors.Is(err, io.EOF) && t.decodeErr == nil {
					t.decodeErr = fmt.Errorf("replaying %d upstream bytes: %w", len(stream), err)
				}
				break
			}
			t.frames++
		}
		t.decodeNs += time.Since(start).Nanoseconds()
	}
	return t
}

// procSample reads the process counters the proc.* layer metrics come
// from; the difference of two samples brackets one traced search.
type procSample struct {
	cpu    time.Duration // user + system, from getrusage
	gcCPU  float64       // seconds, runtime/metrics
	allCPU float64
	allocs uint64
}

var procMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	return procSample{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:  samples[0].Value.Float64(),
		allCPU: samples[1].Value.Float64(),
		allocs: samples[2].Value.Uint64(),
	}
}

// addProc adds the difference between two samples, taken wall apart, to a
// layer sample.
func addProc(l layerSample, from, to procSample, wall time.Duration) {
	l["proc_wall_s"] += wall.Seconds()
	l["proc_cpu_s"] += (to.cpu - from.cpu).Seconds()
	l["proc_gc_cpu_s"] += to.gcCPU - from.gcCPU
	l["proc_all_cpu_s"] += to.allCPU - from.allCPU
	l["proc_alloc_bytes"] += float64(to.allocs - from.allocs)
}
