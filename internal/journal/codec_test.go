package journal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/billboard"
)

// sameRecord compares records field by field, with Post.Value compared by
// bit pattern so NaN and -0 round trips are checked exactly.
func sameRecord(a, b Record) bool {
	if math.Float64bits(a.Post.Value) != math.Float64bits(b.Post.Value) {
		return false
	}
	a.Post.Value, b.Post.Value = 0, 0
	return reflect.DeepEqual(a, b)
}

// edgeRecords is one record of every kind, with edge values in the fields
// the codec handles specially, written through the Writer's methods.
func edgeRecords() ([]Record, func(w *Writer) error) {
	admits := make([]Admit, 10000)
	for i := range admits {
		admits[i] = Admit{Player: i * 7919, Object: math.MaxInt32 - i}
	}
	post := billboard.Post{Player: 3, Object: 1 << 40, Value: math.NaN(), Positive: true, Round: 12}
	negPost := billboard.Post{Player: math.MaxInt64, Object: 0, Value: -1.5e300}
	zeroPost := billboard.Post{Value: math.Copysign(0, -1)}
	const maxU = math.MaxUint64
	recs := []Record{
		{Kind: RecordPost, Post: post, Session: maxU, Seq: maxU, Index: math.MaxInt64},
		{Kind: RecordPost, Post: negPost, Session: 1, Seq: 2, Index: math.MinInt64},
		{Kind: RecordPost, Post: zeroPost},
		{Kind: RecordProbe, Session: maxU, Seq: maxU, Player: math.MaxInt64, Object: 1 << 50},
		{Kind: RecordBarrier, Session: maxU, Seq: 9, Player: -1},
		{Kind: RecordDone, Session: 5, Seq: maxU, Player: 0},
		{Kind: RecordForceDone, Player: math.MinInt64},
		{Kind: RecordSwarmOpen, Session: maxU, Player: 0, PlayerTo: 1 << 20},
		{Kind: RecordEpoch, Epoch: math.MaxInt64},
		{Kind: RecordEndRound, Admits: admits},
		{Kind: RecordRollback},
		{Kind: RecordEndRound, Admits: []Admit{{Player: -1, Object: -2}}, Term: maxU, Quorum: math.MaxInt64},
		{Kind: RecordEndRound},
	}
	write := func(w *Writer) error {
		for _, err := range []error{
			w.AppendAt(maxU, maxU, math.MaxInt64, post),
			w.AppendAt(1, 2, math.MinInt64, negPost),
			w.Append(zeroPost),
			w.Probe(maxU, maxU, math.MaxInt64, 1<<50),
			w.Barrier(maxU, 9, -1),
			w.Done(5, maxU, 0),
			w.ForceDone(math.MinInt64),
			w.SwarmOpen(maxU, 0, 1<<20),
			w.EpochMark(math.MaxInt64),
			w.EndRoundAdmits(admits),
			w.Rollback(),
			w.EndRoundQuorum([]Admit{{Player: -1, Object: -2}}, maxU, math.MaxInt64),
			w.EndRound(),
		} {
			if err != nil {
				return err
			}
		}
		return nil
	}
	return recs, write
}

// TestRecordRoundTripEdgeValues writes one record of every kind with edge
// values and checks replay hands each back exactly, with Round counting the
// markers before it.
func TestRecordRoundTripEdgeValues(t *testing.T) {
	want, write := edgeRecords()
	var buf bytes.Buffer
	if err := write(NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := ReplayRecords(&buf, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	round := 0
	for i := range want {
		want[i].Round = round
		if want[i].Kind == RecordEndRound {
			round++
		}
		if !sameRecord(got[i], want[i]) {
			g, w := got[i], want[i]
			g.Admits, w.Admits = nil, nil
			t.Fatalf("record %d (kind %d) = %+v (%d admits), want %+v (%d admits)",
				i, want[i].Kind, g, len(got[i].Admits), w, len(want[i].Admits))
		}
	}
}

// TestReplayedAdmitsOutliveFrame checks replay hands out Admits that do not
// alias its reused frame buffer: records escape into recovery's pending
// buffers and must survive the frames decoded after them.
func TestReplayedAdmitsOutliveFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.EndRoundAdmits([]Admit{{Player: i, Object: 10 + i}}); err != nil {
			t.Fatal(err)
		}
	}
	var kept [][]Admit
	if err := ReplayRecords(&buf, func(r Record) error {
		kept = append(kept, r.Admits)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, a := range kept {
		if len(a) != 1 || a[0] != (Admit{Player: i, Object: 10 + i}) {
			t.Fatalf("round %d admits = %+v after later frames were decoded", i, a)
		}
	}
}

// TestBatchTornAtEveryOffset writes a mixed batch in one Write, then
// replays every prefix of it: a prefix ending on a frame boundary replays
// cleanly, any other replays exactly the complete frames before the cut and
// reports ErrTruncated. The batch bytes equal the records written one by
// one, so a batch is indistinguishable from single writes on replay.
func TestBatchTornAtEveryOffset(t *testing.T) {
	var batch, single bytes.Buffer
	writes := 0
	w := NewWriter(writerFunc(func(p []byte) (int, error) {
		writes++
		return batch.Write(p)
	}))
	sw := NewWriter(&single)
	admits := make([]Admit, 100) // a frame with a two-byte length prefix
	var bounds []int
	jb := w.Batch()
	add := func(f func(), g func() error) {
		f()
		if err := g(); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, single.Len())
	}
	p := billboard.Post{Player: 1, Object: 2, Value: 0.25, Positive: true}
	add(func() { jb.Probe(7, 3, 1, 4) }, func() error { return sw.Probe(7, 3, 1, 4) })
	add(func() { jb.AppendAt(7, 3, 9, p) }, func() error { return sw.AppendAt(7, 3, 9, p) })
	add(func() { jb.AppendFrom(7, 3, p) }, func() error { return sw.AppendFrom(7, 3, p) })
	add(func() { jb.Done(7, 3, 1) }, func() error { return sw.Done(7, 3, 1) })
	add(func() { jb.add(&Record{Kind: RecordEndRound, Admits: admits}) },
		func() error { return sw.EndRoundAdmits(admits) })
	add(func() { jb.Probe(8, 1, 2, 5) }, func() error { return sw.Probe(8, 1, 2, 5) })
	if err := jb.Write(); err != nil {
		t.Fatal(err)
	}
	if writes != 1 {
		t.Fatalf("batch issued %d writes, want 1", writes)
	}
	if !bytes.Equal(batch.Bytes(), single.Bytes()) {
		t.Fatalf("batch bytes diverge from single writes:\nbatch:  %x\nsingle: %x", batch.Bytes(), single.Bytes())
	}
	data := batch.Bytes()
	for cut := 0; cut <= len(data); cut++ {
		complete, boundary := 0, cut == 0
		for _, b := range bounds {
			if b <= cut {
				complete++
			}
			boundary = boundary || b == cut
		}
		n := 0
		err := ReplayRecords(bytes.NewReader(data[:cut]), func(Record) error { n++; return nil })
		if n != complete {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, n, complete)
		}
		if boundary && err != nil {
			t.Fatalf("cut %d on a frame boundary: %v", cut, err)
		}
		if !boundary && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestBatchSyncPolicy: a batch is one write and at most one sync —
// SyncAlways syncs it, SyncCommit only when it holds a round marker or
// rollback, and an empty batch neither writes nor syncs.
func TestBatchSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
		fill   func(b *Batch)
		want   int
	}{
		{"always", SyncAlways, func(b *Batch) { b.Probe(1, 1, 0, 0); b.Probe(1, 1, 1, 1) }, 1},
		{"commit-probes", SyncCommit, func(b *Batch) { b.Probe(1, 1, 0, 0); b.Done(1, 1, 0) }, 0},
		{"commit-marker", SyncCommit, func(b *Batch) { b.Probe(1, 1, 0, 0); b.add(&Record{Kind: RecordEndRound}) }, 1},
		{"empty", SyncAlways, func(*Batch) {}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			writes, synced := 0, 0
			w := NewWriter(writerFunc(func(p []byte) (int, error) { writes++; return len(p), nil }))
			w.SetSync(func() error { synced++; return nil }, tc.policy)
			b := w.Batch()
			tc.fill(b)
			if err := b.Write(); err != nil {
				t.Fatal(err)
			}
			if synced != tc.want || writes != min(1, len(b.buf)) {
				t.Fatalf("writes %d syncs %d, want syncs %d", writes, synced, tc.want)
			}
		})
	}
}

// TestUnknownKindIsErrFormat: a complete frame whose payload does not start
// with a record kind is ErrFormat, not a torn tail — after the frames
// before it were delivered.
func TestUnknownKindIsErrFormat(t *testing.T) {
	for _, kind := range []byte{0x00, 0x05, 0x7f, 0x80, 0x8a, 0xfe, 0xff} {
		var buf bytes.Buffer
		if err := NewWriter(&buf).Probe(1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
		buf.Write([]byte{2, kind, 0})
		n := 0
		err := ReplayRecords(&buf, func(Record) error { n++; return nil })
		if !errors.Is(err, ErrFormat) || errors.Is(err, ErrTruncated) || n != 1 {
			t.Fatalf("kind byte %#x: err = %v after %d records, want ErrFormat after 1", kind, err, n)
		}
	}
}

// TestMalformedPayloadIsErrTruncated: a known kind with missing, trailing
// or out-of-range field bytes is a corrupt tail, not a format mismatch.
func TestMalformedPayloadIsErrTruncated(t *testing.T) {
	for _, frame := range [][]byte{
		{1, kindTag | byte(RecordProbe)},                                                  // fields missing
		{2, kindTag | byte(RecordRollback), 0},                                            // trailing byte
		{3, kindTag | byte(RecordEndRound), 0x7f, 0},                                      // admit count beyond the frame
		append(append([]byte{16, kindTag | byte(RecordPost)}, make([]byte, 13)...), 2, 0), // flag byte 2
	} {
		err := ReplayRecords(bytes.NewReader(frame), func(Record) error { return nil })
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("frame %x: err = %v, want ErrTruncated", frame, err)
		}
	}
}

// BenchmarkJournalAppend prices journaling probe records: one record per
// write against a 256-record batch per write, reported per record.
func BenchmarkJournalAppend(b *testing.B) {
	for _, size := range []int{1, 256} {
		name := "single"
		if size > 1 {
			name = "batch-256"
		}
		b.Run(name, func(b *testing.B) {
			w := NewWriter(io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				jb := w.Batch()
				for k := 0; k < size; k++ {
					jb.Probe(uint64(i), uint64(i), k, k*31)
				}
				if err := jb.Write(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/record")
		})
	}
}

// BenchmarkReplayRecords prices recovery and promotion: decoding a journal
// of probe, post and round-marker records, reported per record.
func BenchmarkReplayRecords(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	records := 0
	for round := 0; round < 64; round++ {
		admits := make([]Admit, 0, 16)
		for p := 0; p < 16; p++ {
			_ = w.Probe(uint64(p+1), uint64(round+1), p, round*16+p)
			_ = w.AppendAt(uint64(p+1), uint64(round+1), round, billboard.Post{Player: p, Object: round*16 + p, Value: 1, Positive: true})
			admits = append(admits, Admit{Player: p, Object: round*16 + p})
			records += 2
		}
		_ = w.EndRoundAdmits(admits)
		records++
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ReplayRecords(bytes.NewReader(data), func(Record) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
