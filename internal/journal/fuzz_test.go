package journal

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/billboard"
)

// FuzzReplay feeds arbitrary bytes to the journal reader: it must never
// panic, and must classify any non-journal input as clean EOF (empty),
// ErrTruncated, or ErrFormat — never as valid state beyond what complete
// frames encode.
func FuzzReplay(f *testing.F) {
	// Seed with a valid journal, a torn one, and junk.
	var valid bytes.Buffer
	w := NewWriter(&valid)
	_ = w.Append(billboard.Post{Player: 0, Object: 1, Value: 1, Positive: true})
	_ = w.EndRound()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-2])
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint
	// One frame of each record kind.
	for _, write := range []func(w *Writer) error{
		func(w *Writer) error { return w.AppendAt(3, 4, 5, billboard.Post{Player: 1, Object: 2, Value: -0.5}) },
		func(w *Writer) error { return w.EndRoundQuorum([]Admit{{Player: 1, Object: 2}}, 3, 2) },
		func(w *Writer) error { return w.ForceDone(2) },
		func(w *Writer) error { return w.Probe(1, 2, 3, 3) },
		func(w *Writer) error { return w.Done(1, 3, 3) },
		func(w *Writer) error { return w.Barrier(1, 4, -1) },
		func(w *Writer) error { return w.Rollback() },
		func(w *Writer) error { return w.SwarmOpen(9, 0, 4) },
		func(w *Writer) error { return w.EpochMark(7) },
	} {
		var frame bytes.Buffer
		if err := write(NewWriter(&frame)); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		posts, rounds := 0, 0
		err := Replay(bytes.NewReader(data),
			func(billboard.Post) error { posts++; return nil },
			func() error { rounds++; return nil },
		)
		if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFormat) {
			t.Fatalf("unexpected error class: %v", err)
		}
		// Rebuild must also never panic on the same input. A well-formed
		// journal may name players or objects outside this small board;
		// the board's own range error is the one other answer allowed.
		if _, err := Rebuild(bytes.NewReader(data), billboard.Config{Players: 4, Objects: 4}); err != nil &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFormat) &&
			!strings.HasPrefix(err.Error(), "billboard: ") {
			t.Fatalf("rebuild error class: %v", err)
		}
	})
}

// scriptRecord derives one record of any kind from a fuzz script byte,
// reaching negative and multi-byte varint values.
func scriptRecord(b byte, i int) Record {
	v := int(int8(b)) * (i + 1) * 977
	u := uint64(b) << (uint(i) % 57)
	r := Record{Kind: RecordKind(b%9) + RecordPost}
	switch r.Kind {
	case RecordPost:
		r.Session, r.Seq, r.Index = u, u+1, v
		r.Post = billboard.Post{Player: int(b % 8), Object: v, Value: float64(v) / 255, Positive: b%2 == 0, Round: i}
	case RecordEndRound:
		for k := 0; k < int(b%5); k++ {
			r.Admits = append(r.Admits, Admit{Player: v + k, Object: -k})
		}
		r.Term, r.Quorum = u, v
	case RecordForceDone:
		r.Player = v
	case RecordProbe:
		r.Session, r.Seq, r.Player, r.Object = u, u+2, int(b%8), v
	case RecordDone, RecordBarrier:
		r.Session, r.Seq, r.Player = u, u+3, v
	case RecordSwarmOpen:
		r.Session, r.Player, r.PlayerTo = u, v, v+int(b)
	case RecordEpoch:
		r.Epoch = v
	}
	return r
}

// writeRecord writes r through the Writer method for its kind.
func writeRecord(w *Writer, r Record) error {
	switch r.Kind {
	case RecordPost:
		return w.AppendAt(r.Session, r.Seq, r.Index, r.Post)
	case RecordEndRound:
		return w.EndRoundQuorum(r.Admits, r.Term, r.Quorum)
	case RecordForceDone:
		return w.ForceDone(r.Player)
	case RecordProbe:
		return w.Probe(r.Session, r.Seq, r.Player, r.Object)
	case RecordDone:
		return w.Done(r.Session, r.Seq, r.Player)
	case RecordBarrier:
		return w.Barrier(r.Session, r.Seq, r.Player)
	case RecordRollback:
		return w.Rollback()
	case RecordSwarmOpen:
		return w.SwarmOpen(r.Session, r.Player, r.PlayerTo)
	default:
		return w.EpochMark(r.Epoch)
	}
}

// FuzzWriteReplayRoundTrip generates structured journals of every record
// kind from fuzz input — bytes with the high bit set join a batch written
// in one Write, the rest go through the Writer's per-record methods — and
// checks the round-trip invariant: what the Writer wrote, ReplayRecords
// reads back exactly.
func FuzzWriteReplayRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4})
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x81, 0x82, 0x83, 7, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89})
	f.Fuzz(func(t *testing.T, script []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var want []Record
		var jb *Batch
		flush := func() {
			if jb != nil {
				if err := jb.Write(); err != nil {
					t.Fatal(err)
				}
				jb = nil
			}
		}
		round := 0
		for i, b := range script {
			r := scriptRecord(b, i)
			if b&0x80 != 0 {
				if jb == nil {
					jb = w.Batch()
				}
				jb.add(&r)
			} else {
				flush()
				if err := writeRecord(w, r); err != nil {
					t.Fatal(err)
				}
			}
			r.Round = round
			if r.Kind == RecordEndRound {
				round++
			}
			want = append(want, r)
		}
		flush()
		var got []Record
		if err := ReplayRecords(&buf, func(r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("replay of a writer-produced journal failed: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("round trip lost records: %d of %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}
