package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/server"
)

// gobEraProbe is the field layout of a probe record in the journal format
// that preceded the binary codec: one gob message per frame.
type gobEraProbe struct {
	Kind    uint8
	Player  int
	Session uint64
	Seq     uint64
	Object  int
}

// writeGobEraWal writes a wal holding one gob-framed probe record (uvarint
// length, then a self-contained gob message) into dir.
func writeGobEraWal(t *testing.T, dir string) []byte {
	t.Helper()
	var msg bytes.Buffer
	if err := gob.NewEncoder(&msg).Encode(gobEraProbe{Kind: 4, Player: 0, Session: 1, Seq: 1, Object: 3}); err != nil {
		t.Fatal(err)
	}
	frame := binary.AppendUvarint(nil, uint64(msg.Len()))
	frame = append(frame, msg.Bytes()...)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000.log"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestPersistRejectsGobEraJournal: a wal written in the gob-framed format
// must stop startup with journal.ErrFormat — on the coordinator's store,
// through the legacy Recover reader, on a shard lane's store, and at a
// replica's bootstrap promotion — rather than be recovered as an empty
// board with new frames appended behind the unreadable ones.
func TestPersistRejectsGobEraJournal(t *testing.T) {
	u := plantedUniverse(t)
	tokens := []string{"a", "b"}
	wantFormat := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, journal.ErrFormat) {
			t.Fatalf("startup err = %v, want journal.ErrFormat", err)
		}
	}
	open := func(t *testing.T, dir string) *journal.Store {
		t.Helper()
		st, err := journal.OpenStore(dir, journal.SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	t.Run("persist", func(t *testing.T) {
		dir := t.TempDir()
		frame := writeGobEraWal(t, dir)
		_, err := server.New(server.Config{Universe: u, Tokens: tokens, Persist: open(t, dir)})
		wantFormat(t, err)
		if got, _ := os.ReadFile(filepath.Join(dir, "wal-00000000.log")); !bytes.Equal(got, frame) {
			t.Fatalf("refused startup modified the wal: %x", got)
		}
	})
	t.Run("recover", func(t *testing.T) {
		frame := writeGobEraWal(t, t.TempDir())
		_, err := server.New(server.Config{Universe: u, Tokens: tokens, Recover: bytes.NewReader(frame)})
		wantFormat(t, err)
	})
	t.Run("lane", func(t *testing.T) {
		dir := t.TempDir()
		writeGobEraWal(t, filepath.Join(dir, "shard-001"))
		_, err := server.New(server.Config{Universe: u, Tokens: tokens, Shards: 2, Persist: open(t, dir)})
		wantFormat(t, err)
	})
	t.Run("replica", func(t *testing.T) {
		dir := t.TempDir()
		writeGobEraWal(t, dir)
		repLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		clientLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node, err := server.StartReplica(server.ReplicaConfig{
			ID: 0, Dir: dir,
			Peers:       []string{repLn.Addr().String()},
			ClientAddrs: []string{clientLn.Addr().String()},
			RepListener: repLn, ClientListener: clientLn,
		}, server.Config{Universe: u, Tokens: tokens})
		if err == nil {
			node.Close()
		}
		wantFormat(t, err)
	})
}
