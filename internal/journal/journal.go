// Package journal persists a billboard as an append-only log — the
// durability counterpart of the model's "append only" guarantee (§2.1: no
// message is ever erased). A Writer streams committed posts and round
// markers to any io.Writer; Replay reconstructs the exact board state, so a
// billboard server can recover from a crash without losing a single
// identity-tagged, timestamped report.
//
// Format: length-prefixed frames (uvarint length + binary payload), each
// frame self-contained, so a journal stays appendable across process
// restarts and a torn tail loses at most the final partial frame. A
// payload is one record: a kind byte (0x80|kind), then that kind's fields
// in a fixed order — integers as varints (unsigned for sessions, sequence
// numbers and terms; zigzag for the rest), a post's Value as 8
// little-endian IEEE-754 bytes, its Positive flag as one 0/1 byte. No gob
// message starts with a byte in 0x81..0xf7, so a journal written by the
// earlier gob-framed format is reported as ErrFormat rather than mistaken
// for a torn tail. Posts are grouped into rounds by marker frames; a round
// without its marker was never visible to players (the synchrony
// contract) and is discarded on rebuild.
//
// Write-ahead records (durable restart). Beyond posts and round markers,
// the journal carries the operational records a server needs to restart
// mid-run with no observable effect on honest players:
//
//   - probe records (session, seq, player, object): the charged-probe
//     ledger. A probe is charged if and only if its record reached the
//     journal, so a recovered server re-derives per-player probe counts
//     and costs exactly — a retried probe is never double-billed across a
//     restart.
//   - barrier and done records (session, seq): round/membership state. A
//     barrier record is round-buffered like a post (an uncommitted round's
//     arrivals are discarded and re-arrive on retry); a done record
//     applies immediately (deregistration is idempotent).
//   - rollback markers: appended by a recovering server after it discards
//     an uncommitted tail, so a later recovery of the same file discards
//     that orphan prefix too instead of double-applying re-executed posts.
//
// Session-scoped records let recovery rebuild each session's dedup window
// (last executed sequence number), which is what makes a server restart
// look like an ordinary long reconnect to a resuming client.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/billboard"
)

// RecordKind discriminates journal records.
type RecordKind uint8

// Record kinds: the Writer's vocabulary.
const (
	RecordPost RecordKind = iota + 1
	RecordEndRound
	RecordForceDone
	RecordProbe
	RecordDone
	RecordBarrier
	RecordRollback
	RecordSwarmOpen
	RecordEpoch
)

// kindTag is set on every payload's kind byte (see the package doc).
const kindTag = 0x80

// Record is one journal record, as the Writer encodes it and replay
// decodes it. Index and Admits are the sharding extension: a sharded
// server's lanes journal each post with its global batch index, and round
// markers carry the round's admitted (player, object) vote pairs so a
// single lane's journal replays to exactly the votes the global admission
// pass granted, without consulting the other lanes.
type Record struct {
	Kind    RecordKind
	Post    billboard.Post // valid when Kind == RecordPost
	Session uint64         // session the record belongs to (0: none recorded)
	Seq     uint64         // per-session request sequence number (0: none)
	Player  int            // valid for force-done, probe, done, barrier, swarm-open
	Object  int            // valid when Kind == RecordProbe
	Index   int            // valid when Kind == RecordPost: client batch order
	Admits  []Admit        // valid when Kind == RecordEndRound on a sharded store
	// PlayerTo closes the member range [Player, PlayerTo) of a swarm
	// session (RecordSwarmOpen): one session that registered a contiguous
	// block of players at once. Recovery rebuilds the whole block's
	// membership from the single record.
	PlayerTo int
	// Term and Quorum annotate a round marker written by a replicated
	// coordinator (EndRoundQuorum): the leader term that proposed the round
	// and the number of durable replica acknowledgements (leader included)
	// the commit waited for. Zero on single-coordinator journals.
	Term   uint64
	Quorum int
	// Epoch is the sealed epoch number of an epoch marker (RecordEpoch),
	// written by an epoch-mode server adjacent to the round marker that
	// commits the same posts. Board-neutral on replay: the round markers
	// alone reconstruct the board, so replication and crash recovery work
	// unchanged whether the run was paced by barriers or by epochs.
	Epoch int
	// Round is the number of round markers read before the record — the
	// round it belongs to. Set by replay; not stored.
	Round int
}

// Admit is one admitted vote pair recorded on a sharded round marker: in
// the round it closes, player's positive post on Object became a vote.
type Admit struct {
	Player int
	Object int
}

// maxFrame bounds a frame's declared size; anything larger is corruption.
const maxFrame = 1 << 20

// SyncPolicy selects when a Writer invokes its sync hook (typically
// os.File.Sync) — the durability/throughput trade-off of the journal.
type SyncPolicy int

const (
	// SyncCommit fsyncs at round markers and rollbacks (the default): a
	// machine crash loses at most the uncommitted round, which the
	// synchrony contract discards anyway. Probe records between commits
	// ride in the OS page cache — durable across a process kill, not
	// across a power cut.
	SyncCommit SyncPolicy = iota
	// SyncNone never fsyncs: the OS flushes on its own schedule. Process
	// crashes (kill -9) still lose nothing — written bytes survive the
	// process — but a machine crash can lose committed rounds.
	SyncNone
	// SyncAlways fsyncs after every write — a single record, or one
	// request's batch of records: full durability, one disk flush per
	// request on the hot path.
	SyncAlways
)

// String returns the policy name as accepted by ParseSyncPolicy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncCommit:
		return "commit"
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses "commit", "none", or "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "commit":
		return SyncCommit, nil
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	default:
		return 0, fmt.Errorf("journal: unknown sync policy %q (want commit, none, or always)", s)
	}
}

// Writer appends billboard events to an underlying stream. Not safe for
// concurrent use; callers serialize (the billboard server holds its lock
// across Append/EndRound).
type Writer struct {
	w      io.Writer
	batch  Batch
	err    error // first write error; subsequent calls fail fast
	sync   func() error
	policy SyncPolicy
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	jw := &Writer{w: w}
	jw.batch.w = jw
	return jw
}

// SetSync installs a sync hook (typically os.File.Sync) invoked per the
// policy: after every write (SyncAlways) or after writes holding a round
// marker or rollback only (SyncCommit). SyncNone never invokes it.
func (w *Writer) SetSync(sync func() error, policy SyncPolicy) {
	w.sync, w.policy = sync, policy
}

// Batch collects the records of one request so they land in a single
// underlying Write — one syscall and one store-mirror chunk however many
// records the request journals — followed by at most one sync. The Batch
// belongs to its Writer and its buffer is reused: it is valid until the
// next call on that Writer.
type Batch struct {
	w      *Writer
	buf    []byte
	commit bool // holds a round marker or rollback, which SyncCommit syncs after
}

// Batch returns the writer's batch, emptied.
func (w *Writer) Batch() *Batch {
	w.batch.buf, w.batch.commit = w.batch.buf[:0], false
	return &w.batch
}

func (b *Batch) add(r *Record) {
	b.buf = appendFrame(b.buf, r)
	b.commit = b.commit || r.Kind == RecordEndRound || r.Kind == RecordRollback
}

// AppendFrom adds a post record; see Writer.AppendFrom.
func (b *Batch) AppendFrom(session, seq uint64, post billboard.Post) {
	b.add(&Record{Kind: RecordPost, Post: post, Session: session, Seq: seq})
}

// AppendAt adds an indexed post record; see Writer.AppendAt.
func (b *Batch) AppendAt(session, seq uint64, index int, post billboard.Post) {
	b.add(&Record{Kind: RecordPost, Post: post, Session: session, Seq: seq, Index: index})
}

// Probe adds a probe record; see Writer.Probe.
func (b *Batch) Probe(session, seq uint64, player, object int) {
	b.add(&Record{Kind: RecordProbe, Session: session, Seq: seq, Player: player, Object: object})
}

// Done adds a deregistration record; see Writer.Done.
func (b *Batch) Done(session, seq uint64, player int) {
	b.add(&Record{Kind: RecordDone, Session: session, Seq: seq, Player: player})
}

// Write appends the batch's frames in one underlying Write and applies the
// writer's sync policy once. An empty batch writes nothing.
func (b *Batch) Write() error { return b.w.flush(b.buf, b.commit) }

func (w *Writer) write(r Record) error {
	b := w.Batch()
	b.add(&r)
	return b.Write()
}

func (w *Writer) flush(frames []byte, commit bool) error {
	if w.err != nil {
		return w.err
	}
	if len(frames) == 0 {
		return nil
	}
	if _, err := w.w.Write(frames); err != nil {
		w.err = fmt.Errorf("journal: %w", err)
		return w.err
	}
	if w.sync != nil && (w.policy == SyncAlways || (w.policy == SyncCommit && commit)) {
		if err := w.sync(); err != nil {
			w.err = fmt.Errorf("journal: sync: %w", err)
			return w.err
		}
	}
	return nil
}

// Append records one committed post with no session attribution (legacy
// callers); see AppendFrom for the write-ahead form.
func (w *Writer) Append(post billboard.Post) error {
	return w.write(Record{Kind: RecordPost, Post: post})
}

// AppendFrom records one accepted post under the session and sequence
// number that produced it, so recovery can rebuild the session's dedup
// window alongside the board.
func (w *Writer) AppendFrom(session, seq uint64, post billboard.Post) error {
	return w.write(Record{Kind: RecordPost, Post: post, Session: session, Seq: seq})
}

// AppendAt is AppendFrom plus the post's client batch order index — the
// write-ahead form used by a sharded lane, where the commit order across
// lanes is (player, index) rather than single-log arrival order.
func (w *Writer) AppendAt(session, seq uint64, index int, post billboard.Post) error {
	return w.write(Record{Kind: RecordPost, Post: post, Session: session, Seq: seq, Index: index})
}

// EndRound records a round boundary.
func (w *Writer) EndRound() error {
	return w.write(Record{Kind: RecordEndRound})
}

// EndRoundAdmits records a round boundary carrying the round's admitted
// vote pairs (sharded stores). Replaying a single lane honors the recorded
// admissions instead of re-deriving them, which keeps lane replay exact
// even though the global vote budget was consumed across all lanes.
func (w *Writer) EndRoundAdmits(admits []Admit) error {
	return w.write(Record{Kind: RecordEndRound, Admits: admits})
}

// EndRoundQuorum records a round boundary annotated with the replication
// facts of its commit: the leader term that proposed it and the quorum of
// durable replica acknowledgements it waited for. A replicated coordinator
// seals every round with this marker; replay treats it exactly like
// EndRoundAdmits and surfaces the annotation on Record.Term/Quorum.
func (w *Writer) EndRoundQuorum(admits []Admit, term uint64, quorum int) error {
	return w.write(Record{Kind: RecordEndRound, Admits: admits, Term: term, Quorum: quorum})
}

// AppendEndRoundFrame appends one complete round-marker frame — uvarint
// length prefix plus payload, byte-identical to what EndRoundAdmits (term
// and quorum zero) or EndRoundQuorum would write — to dst and returns the
// extended slice. Frames are self-contained, so a sharded commit encodes
// its admits marker once and hands the same bytes to every lane's
// WriteEndRoundFrame instead of re-encoding per lane. Encoding cannot
// fail; the error result is always nil.
func AppendEndRoundFrame(dst []byte, admits []Admit, term uint64, quorum int) ([]byte, error) {
	return appendFrame(dst, &Record{Kind: RecordEndRound, Admits: admits, Term: term, Quorum: quorum}), nil
}

// WriteEndRoundFrame appends a pre-encoded round-marker frame (from
// AppendEndRoundFrame) and applies the writer's round-marker sync policy,
// exactly as EndRoundAdmits would. The frame lands in one underlying Write,
// so a store mirror tees it as a single chunk.
func (w *Writer) WriteEndRoundFrame(frame []byte) error {
	return w.flush(frame, true)
}

// ForceDone records a barrier-deadline decision: the server deregistered
// player as a straggler so the round could commit. Journaling the decision
// keeps crash recovery consistent — a recovered server refuses to let a
// force-done player rejoin a run it was already expelled from.
func (w *Writer) ForceDone(player int) error {
	return w.write(Record{Kind: RecordForceDone, Player: player})
}

// Probe records a charged probe before its response is sent — the
// write-ahead half of the exactly-once billing contract: a probe is
// charged iff its record is in the journal.
func (w *Writer) Probe(session, seq uint64, player, object int) error {
	return w.write(Record{Kind: RecordProbe, Session: session, Seq: seq, Player: player, Object: object})
}

// Done records a player's voluntary deregistration.
func (w *Writer) Done(session, seq uint64, player int) error {
	return w.write(Record{Kind: RecordDone, Session: session, Seq: seq, Player: player})
}

// Barrier records a player's arrival at the round barrier. Buffered like a
// post: it binds only when the round's marker follows.
func (w *Writer) Barrier(session, seq uint64, player int) error {
	return w.write(Record{Kind: RecordBarrier, Session: session, Seq: seq, Player: player})
}

// Rollback marks that a recovering server discarded the records since the
// last round marker (the uncommitted tail of a crashed run). Replays honor
// it by dropping their pending buffers, so posts re-executed after the
// restart are not double-applied by the next recovery.
func (w *Writer) Rollback() error {
	return w.write(Record{Kind: RecordRollback})
}

// SwarmOpen records the registration of a swarm session: one session that
// registered every player in [from, to) at once. Applies immediately, like
// registration itself; recovery rebuilds the block's membership and session
// binding from this single record.
func (w *Writer) SwarmOpen(session uint64, from, to int) error {
	return w.write(Record{Kind: RecordSwarmOpen, Session: session, Player: from, PlayerTo: to})
}

// EpochMark records the sealing of one timestamped epoch (epoch-mode
// servers). It is written adjacent to the round marker committing the same
// posts and is board-neutral on replay — sync-mode journals never contain
// it, and recovery of an epoch-mode journal rebuilds the board from the
// round markers exactly as before.
func (w *Writer) EpochMark(epoch int) error {
	return w.write(Record{Kind: RecordEpoch, Epoch: epoch})
}

// Err returns the Writer's first write error (nil while healthy).
func (w *Writer) Err() error { return w.err }

// Event is an operational decision recorded in the journal alongside posts
// (today: a barrier-deadline force-done). Round is the round the decision
// committed with.
type Event struct {
	Player int
	Round  int
}

// ErrTruncated marks a journal whose tail could not be decoded. State
// rebuilt before the truncation point is still valid.
var ErrTruncated = errors.New("journal: truncated or corrupt tail")

// ErrFormat marks a complete frame whose payload does not start with a
// known record kind: a journal written in the earlier gob-framed format,
// or foreign bytes. Unlike ErrTruncated it is no place to resume from — the
// frames after it are unreadable, and appending behind them would bury new
// records — so recovery must refuse to start on it.
var ErrFormat = errors.New("journal: unknown record format")

// appendFrame appends r to dst as one frame: uvarint payload length, then
// the payload.
func appendFrame(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, 0) // length placeholder: one byte covers payloads under 128
	dst = appendPayload(dst, r)
	size := len(dst) - start - 1
	if size < 0x80 {
		dst[start] = byte(size)
		return dst
	}
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(size))
	dst = append(dst, lenb[1:n]...) // grow by the longer prefix's extra bytes
	copy(dst[start+n:], dst[start+1:start+1+size])
	copy(dst[start:], lenb[:n])
	return dst
}

func appendPayload(dst []byte, r *Record) []byte {
	dst = append(dst, kindTag|byte(r.Kind))
	switch r.Kind {
	case RecordPost:
		dst = binary.AppendUvarint(dst, r.Session)
		dst = binary.AppendUvarint(dst, r.Seq)
		dst = binary.AppendVarint(dst, int64(r.Index))
		dst = binary.AppendVarint(dst, int64(r.Post.Player))
		dst = binary.AppendVarint(dst, int64(r.Post.Object))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Post.Value))
		positive := byte(0)
		if r.Post.Positive {
			positive = 1
		}
		dst = append(dst, positive)
		dst = binary.AppendVarint(dst, int64(r.Post.Round))
	case RecordEndRound:
		dst = binary.AppendUvarint(dst, uint64(len(r.Admits)))
		for _, a := range r.Admits {
			dst = binary.AppendVarint(dst, int64(a.Player))
			dst = binary.AppendVarint(dst, int64(a.Object))
		}
		dst = binary.AppendUvarint(dst, r.Term)
		dst = binary.AppendVarint(dst, int64(r.Quorum))
	case RecordForceDone:
		dst = binary.AppendVarint(dst, int64(r.Player))
	case RecordProbe:
		dst = binary.AppendUvarint(dst, r.Session)
		dst = binary.AppendUvarint(dst, r.Seq)
		dst = binary.AppendVarint(dst, int64(r.Player))
		dst = binary.AppendVarint(dst, int64(r.Object))
	case RecordDone, RecordBarrier:
		dst = binary.AppendUvarint(dst, r.Session)
		dst = binary.AppendUvarint(dst, r.Seq)
		dst = binary.AppendVarint(dst, int64(r.Player))
	case RecordSwarmOpen:
		dst = binary.AppendUvarint(dst, r.Session)
		dst = binary.AppendVarint(dst, int64(r.Player))
		dst = binary.AppendVarint(dst, int64(r.PlayerTo))
	case RecordEpoch:
		dst = binary.AppendVarint(dst, int64(r.Epoch))
	}
	return dst
}

// decoder reads a payload's fields in order; a short or malformed field
// marks it bad and reads as zero.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.bad, d.b = true, nil
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) flag() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.bad, d.b = true, nil
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// decodeRecord decodes one frame payload. The Admits slice is freshly
// allocated, so the record may outlive the frame buffer.
func decodeRecord(p []byte) (Record, error) {
	k := RecordKind(p[0] &^ kindTag)
	if p[0]&kindTag == 0 || k < RecordPost || k > RecordEpoch {
		return Record{}, fmt.Errorf("%w: frame starts with byte %#x, not a record kind", ErrFormat, p[0])
	}
	r := Record{Kind: k}
	d := decoder{b: p[1:]}
	switch r.Kind {
	case RecordPost:
		r.Session, r.Seq, r.Index = d.uvarint(), d.uvarint(), d.int()
		r.Post.Player, r.Post.Object = d.int(), d.int()
		r.Post.Value, r.Post.Positive, r.Post.Round = d.float(), d.flag(), d.int()
	case RecordEndRound:
		// Every admit takes at least two bytes, which bounds a corrupt count
		// before it sizes an allocation.
		if n := d.uvarint(); n > uint64(len(d.b)/2) {
			d.bad = true
		} else if n > 0 {
			r.Admits = make([]Admit, n)
			for i := range r.Admits {
				r.Admits[i] = Admit{Player: d.int(), Object: d.int()}
			}
		}
		r.Term, r.Quorum = d.uvarint(), d.int()
	case RecordForceDone:
		r.Player = d.int()
	case RecordProbe:
		r.Session, r.Seq, r.Player, r.Object = d.uvarint(), d.uvarint(), d.int(), d.int()
	case RecordDone, RecordBarrier:
		r.Session, r.Seq, r.Player = d.uvarint(), d.uvarint(), d.int()
	case RecordSwarmOpen:
		r.Session, r.Player, r.PlayerTo = d.uvarint(), d.int(), d.int()
	case RecordEpoch:
		r.Epoch = d.int()
	}
	if d.bad || len(d.b) != 0 {
		return Record{}, fmt.Errorf("%w: malformed record of kind %d", ErrTruncated, r.Kind)
	}
	return r, nil
}

// ReplayRecords reads a journal and invokes fn for every record, stopping
// cleanly at EOF. A torn or corrupt tail is reported as ErrTruncated after
// every complete preceding frame has been delivered; a frame in an unknown
// format stops replay with ErrFormat. This is the low-level replay;
// Rebuild/Apply add the round-buffering semantics a billboard needs.
func ReplayRecords(r io.Reader, fn func(Record) error) error {
	br := bufio.NewReader(r)
	var frame []byte
	round := 0
	for {
		size, err := binary.ReadUvarint(br)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		if size == 0 || size > maxFrame {
			return fmt.Errorf("%w: implausible frame size %d", ErrTruncated, size)
		}
		if uint64(cap(frame)) < size {
			frame = make([]byte, size)
		}
		frame = frame[:size]
		if _, err := io.ReadFull(br, frame); err != nil {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		rec, err := decodeRecord(frame)
		if err != nil {
			return err
		}
		rec.Round = round
		if err := fn(rec); err != nil {
			return err
		}
		if rec.Kind == RecordEndRound {
			round++
		}
	}
}

// Replay reads a journal and invokes apply for each post and endRound at
// each round boundary, stopping cleanly at EOF. A torn or corrupt tail is
// reported as ErrTruncated after every complete preceding frame has been
// applied. Operational events (force-done records) are skipped; use
// ReplayEvents to observe them.
func Replay(r io.Reader, apply func(billboard.Post) error, endRound func() error) error {
	return ReplayEvents(r, apply, endRound, nil)
}

// ReplayEvents is Replay with an additional callback for operational
// events. Event.Round is the number of round markers read before the
// event — the round the decision was taken in. A nil event callback
// ignores events. Write-ahead records (probes, barriers, dones, rollbacks)
// are board-neutral and skipped here; use ReplayRecords to observe them.
func ReplayEvents(r io.Reader, apply func(billboard.Post) error, endRound func() error, event func(Event) error) error {
	return ReplayRecords(r, func(rec Record) error {
		switch rec.Kind {
		case RecordPost:
			return apply(rec.Post)
		case RecordEndRound:
			return endRound()
		case RecordForceDone:
			if event != nil {
				return event(Event{Player: rec.Player, Round: rec.Round})
			}
		}
		return nil
	})
}

// replayOnto buffers each round's posts and events and applies them only
// once the round marker arrives, so a truncated final round — and any
// force-done decision taken in it — is discarded rather than leaking into
// the recovered board, matching the synchrony contract (an uncommitted
// round was never visible). A rollback record drops the pending buffers
// the same way a truncation would.
func replayOnto(r io.Reader, board *billboard.Board) ([]Event, error) {
	var pending []billboard.Post
	var pendingEv, events []Event
	err := ReplayRecords(r, func(rec Record) error {
		switch rec.Kind {
		case RecordPost:
			pending = append(pending, rec.Post)
		case RecordForceDone:
			pendingEv = append(pendingEv, Event{Player: rec.Player, Round: rec.Round})
		case RecordRollback:
			pending = pending[:0]
			pendingEv = pendingEv[:0]
		case RecordEndRound:
			for _, p := range pending {
				if err := board.Post(billboard.Post{
					Player:   p.Player,
					Object:   p.Object,
					Value:    p.Value,
					Positive: p.Positive,
				}); err != nil {
					return err
				}
			}
			pending = pending[:0]
			events = append(events, pendingEv...)
			pendingEv = pendingEv[:0]
			board.EndRound()
		}
		return nil
	})
	return events, err
}

// Apply replays a journal onto an existing board (e.g. one restored from a
// billboard snapshot — the compaction story: snapshot + journal tail =
// exact state). Posts of an unclosed final round are discarded, as in
// Rebuild; ErrTruncated reports a torn tail with all complete entries
// applied.
func Apply(r io.Reader, board *billboard.Board) error {
	_, err := replayOnto(r, board)
	return err
}

// ApplyEvents is Apply plus the committed operational events, in commit
// order. On ErrTruncated the returned events cover every committed round
// before the corruption.
func ApplyEvents(r io.Reader, board *billboard.Board) ([]Event, error) {
	return replayOnto(r, board)
}

// Rebuild replays a journal into a fresh board built from cfg. Posts whose
// rounds were never closed by a round marker are discarded, matching the
// synchrony contract (they were never visible). On ErrTruncated the board
// reflects every complete entry before the corruption and the error is
// returned alongside it so callers can decide whether to proceed.
func Rebuild(r io.Reader, cfg billboard.Config) (*billboard.Board, error) {
	board, _, err := RebuildEvents(r, cfg)
	return board, err
}

// RebuildEvents is Rebuild plus the committed operational events (the
// force-done decisions), in commit order.
func RebuildEvents(r io.Reader, cfg billboard.Config) (*billboard.Board, []Event, error) {
	board, err := billboard.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	events, replayErr := replayOnto(r, board)
	if replayErr != nil && !errors.Is(replayErr, ErrTruncated) {
		return nil, nil, replayErr
	}
	return board, events, replayErr
}
