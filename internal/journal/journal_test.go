package journal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/billboard"
)

func post(player, obj int, positive bool) billboard.Post {
	return billboard.Post{Player: player, Object: obj, Value: 1, Positive: positive}
}

func TestRoundTripRebuild(t *testing.T) {
	cfg := billboard.Config{Players: 4, Objects: 8}
	original, err := billboard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)

	apply := func(p billboard.Post) {
		if err := original.Post(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	endRound := func() {
		original.EndRound()
		if err := w.EndRound(); err != nil {
			t.Fatal(err)
		}
	}

	apply(post(0, 3, true))
	apply(post(1, 3, true))
	endRound()
	apply(post(2, 5, true))
	apply(post(3, 1, false)) // negative report
	endRound()

	rebuilt, err := Rebuild(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Round() != original.Round() {
		t.Fatalf("round %d != %d", rebuilt.Round(), original.Round())
	}
	for p := 0; p < 4; p++ {
		if !reflect.DeepEqual(rebuilt.Votes(p), original.Votes(p)) {
			t.Fatalf("player %d votes differ: %+v vs %+v",
				p, rebuilt.Votes(p), original.Votes(p))
		}
	}
	if rebuilt.NegativeCount(1) != 1 {
		t.Fatalf("negative count lost: %d", rebuilt.NegativeCount(1))
	}
	if !reflect.DeepEqual(rebuilt.VotedObjects(), original.VotedObjects()) {
		t.Fatal("voted objects differ")
	}
	if !reflect.DeepEqual(rebuilt.CountVotesInWindow(0, 2), original.CountVotesInWindow(0, 2)) {
		t.Fatal("window counts differ")
	}
}

func TestUncommittedTailDiscarded(t *testing.T) {
	cfg := billboard.Config{Players: 2, Objects: 4}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(post(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	// A post whose round never closed (crash before the marker).
	if err := w.Append(post(1, 2, true)); err != nil {
		t.Fatal(err)
	}

	rebuilt, err := Rebuild(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Round() != 1 {
		t.Fatalf("round = %d, want 1", rebuilt.Round())
	}
	if rebuilt.HasVote(1) {
		t.Fatal("uncommitted post leaked into the rebuilt board")
	}
	if !rebuilt.HasVote(0) {
		t.Fatal("committed post lost")
	}
}

func TestTruncatedStreamReportsButKeepsPrefix(t *testing.T) {
	cfg := billboard.Config{Players: 2, Objects: 4}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(post(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(post(1, 2, true)); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-entry.
	torn := buf.Bytes()[:buf.Len()-3]

	rebuilt, err := Rebuild(bytes.NewReader(torn), cfg)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	if rebuilt == nil {
		t.Fatal("prefix state lost")
	}
	if !rebuilt.HasVote(0) {
		t.Fatal("first committed round lost")
	}
}

func TestWriterFailsFast(t *testing.T) {
	w := NewWriter(failWriter{})
	if err := w.Append(post(0, 0, true)); err == nil {
		t.Fatal("write error swallowed")
	}
	// Subsequent calls return the sticky error without panicking.
	if err := w.EndRound(); err == nil {
		t.Fatal("sticky error not returned")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestReplayCallbackErrorsPropagate(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(post(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Replay(&buf, func(billboard.Post) error { return boom }, func() error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("apply error lost: %v", err)
	}
}

func TestAppendAcrossWriters(t *testing.T) {
	// Two separate Writers appending to the same buffer model a process
	// restart; one Replay must read both segments (this is why frames are
	// self-contained rather than one stateful stream).
	cfg := billboard.Config{Players: 2, Objects: 4}
	var buf bytes.Buffer
	w1 := NewWriter(&buf)
	if err := w1.Append(post(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := w1.EndRound(); err != nil {
		t.Fatal(err)
	}
	w2 := NewWriter(&buf) // "restart"
	if err := w2.Append(post(1, 2, true)); err != nil {
		t.Fatal(err)
	}
	if err := w2.EndRound(); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := Rebuild(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Round() != 2 || !rebuilt.HasVote(0) || !rebuilt.HasVote(1) {
		t.Fatalf("append-across-restart lost state: round=%d", rebuilt.Round())
	}
}

func TestEmptyJournal(t *testing.T) {
	rebuilt, err := Rebuild(bytes.NewReader(nil), billboard.Config{Players: 1, Objects: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Round() != 0 || rebuilt.TotalVotes() != 0 {
		t.Fatal("empty journal should rebuild an empty board")
	}
}

func TestForceDoneEventsReplay(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(post(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := w.ForceDone(2); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	if err := w.ForceDone(3); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	// A force-done in a round that never committed must be discarded along
	// with the round — the decision was never visible.
	if err := w.ForceDone(1); err != nil {
		t.Fatal(err)
	}

	board, events, err := RebuildEvents(bytes.NewReader(buf.Bytes()), billboard.Config{Players: 4, Objects: 8})
	if err != nil {
		t.Fatal(err)
	}
	if board.Round() != 2 {
		t.Fatalf("round = %d, want 2", board.Round())
	}
	want := []Event{{Player: 2, Round: 0}, {Player: 3, Round: 1}}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}

	// Plain Replay skips events; ReplayEvents surfaces them in order.
	var seen []Event
	err = ReplayEvents(bytes.NewReader(buf.Bytes()),
		func(billboard.Post) error { return nil },
		func() error { return nil },
		func(e Event) error { seen = append(seen, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	// ReplayEvents is raw (no round buffering): it reports the trailing
	// uncommitted event too, tagged with the round it happened in.
	wantRaw := append(want, Event{Player: 1, Round: 2})
	if !reflect.DeepEqual(seen, wantRaw) {
		t.Fatalf("raw events = %v, want %v", seen, wantRaw)
	}
}
