package datastore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepsea/internal/faults"
	"deepsea/internal/interval"
)

func openT(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func appendT(t *testing.T, s *FileStore, recs ...Record) {
	t.Helper()
	for i := range recs {
		if err := s.Append(&recs[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func TestFileStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	appendT(t, s,
		Record{Op: "ensure_view", View: "v1"},
		Record{Op: "add_frag", View: "v1", Attr: "item",
			Iv: interval.New(0, 99), Path: "frag/v1", Size: 4096},
		Record{Op: "clock", T: 12.5},
	)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	snap, tail, err := s2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if snap != nil {
		t.Fatalf("unexpected snapshot: %q", snap)
	}
	if len(tail) != 3 {
		t.Fatalf("got %d records, want 3", len(tail))
	}
	if tail[0].Op != "ensure_view" || tail[0].View != "v1" || tail[0].Seq != 1 {
		t.Errorf("record 0 = %+v", tail[0])
	}
	f := tail[1]
	if f.Op != "add_frag" || f.Iv != interval.New(0, 99) || f.Path != "frag/v1" || f.Size != 4096 {
		t.Errorf("record 1 = %+v", f)
	}
	if tail[2].T != 12.5 {
		t.Errorf("record 2 clock = %v, want 12.5", tail[2].T)
	}
	// New appends continue the sequence after the reopened history.
	appendT(t, s2, Record{Op: "remove_view", View: "v1"})
	if got := s2.Stats().LastSeq; got != 4 {
		t.Errorf("LastSeq after reopen+append = %d, want 4", got)
	}
}

func TestFileStoreSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	appendT(t, s, Record{Op: "a"}, Record{Op: "b"})
	if err := s.WriteSnapshot([]byte(`{"state":1}`)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	appendT(t, s, Record{Op: "c"}, Record{Op: "d"})

	snap, tail, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(snap, []byte(`{"state":1}`)) {
		t.Errorf("snapshot = %q", snap)
	}
	if len(tail) != 2 || tail[0].Op != "c" || tail[1].Op != "d" {
		t.Errorf("tail = %+v, want [c d]", tail)
	}
	st := s.Stats()
	if st.SnapshotSeq != 2 || st.LastSeq != 4 || st.Snapshots != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFileStoreTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	appendT(t, s, Record{Op: "a"}, Record{Op: "b"})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: a partial line with no newline.
	jpath := filepath.Join(dir, "journal.log")
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":3,"op":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	if got := s2.Stats().TornTailRepairs; got != 1 {
		t.Errorf("TornTailRepairs = %d, want 1", got)
	}
	_, tail, err := s2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(tail) != 2 || tail[0].Op != "a" || tail[1].Op != "b" {
		t.Fatalf("tail after repair = %+v, want [a b]", tail)
	}
	// The torn bytes are gone: a new append lands on a clean boundary and
	// survives another reopen.
	appendT(t, s2, Record{Op: "c"})
	s2.Close()
	s3 := openT(t, dir)
	defer s3.Close()
	_, tail, err = s3.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(tail) != 3 || tail[2].Op != "c" {
		t.Fatalf("tail after repair+append = %+v, want [a b c]", tail)
	}
}

func TestFileStoreCorruptLineStopsScan(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	appendT(t, s, Record{Op: "a"}, Record{Op: "b"}, Record{Op: "c"})
	s.Close()

	// Flip a payload byte of the second line: its checksum no longer
	// matches, so the intact prefix ends after record one.
	raw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want >= 3", len(lines))
	}
	lines[1][len(lines[1])-3] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, "journal.log"),
		bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	_, tail, err := s2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(tail) != 1 || tail[0].Op != "a" {
		t.Fatalf("tail = %+v, want [a]", tail)
	}
	if got := s2.Stats().TornTailRepairs; got != 1 {
		t.Errorf("TornTailRepairs = %d, want 1", got)
	}
}

// TestFileStoreFormatMismatchIsNotATornTail: a line whose checksum
// verifies but whose payload does not decode — here a put_file written
// by a build that journalled cells as {"I":…,"F":…,"S":…} objects — was
// written whole. Open must refuse the journal by name and leave it
// byte-for-byte alone, not truncate it (and the good record behind it)
// away as a torn tail.
func TestFileStoreFormatMismatchIsNotATornTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	appendT(t, s, Record{Op: "a"})
	s.Close()

	jpath := filepath.Join(dir, "journal.log")
	old := `{"seq":2,"op":"put_file","p":"/v/1","n":8,"iv":{"Lo":0,"Hi":0},"dom":{"Lo":0,"Hi":0},` +
		`"rows":{"Schema":{"Name":"v","Cols":[{"Name":"k","Type":0,"Ordered":false,"Lo":0,"Hi":0,"Width":0}]},` +
		`"Rows":[[{"I":7,"F":0,"S":""}]]}}`
	good := `{"seq":3,"op":"c","iv":{"Lo":0,"Hi":0},"dom":{"Lo":0,"Hi":0}}`
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{old, good} {
		fmt.Fprintf(f, "%08x %s\n", crc32.Checksum([]byte(payload), crcTable), payload)
	}
	f.Close()
	before, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err == nil {
		s2.Close()
		t.Fatal("Open accepted a journal holding an old-format record")
	}
	if !errors.Is(err, ErrJournalFormat) {
		t.Fatalf("Open error = %v, want ErrJournalFormat", err)
	}
	if !strings.Contains(err.Error(), "after seq 1") {
		t.Errorf("error %q does not name the position", err)
	}
	after, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("journal changed: %d bytes before, %d after", len(before), len(after))
	}
}

func TestFileStoreSnapshotJournalOverlap(t *testing.T) {
	// A crash between snapshot publication and journal truncation leaves
	// a journal whose prefix the snapshot already covers. Simulate it by
	// snapshotting and then restoring the pre-snapshot journal bytes.
	dir := t.TempDir()
	s := openT(t, dir)
	appendT(t, s, Record{Op: "a"}, Record{Op: "b"})
	preSnap, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte(`"covered"`)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	appendT(t, s, Record{Op: "c"})
	postSnap, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Journal as the crash would leave it: old prefix + new tail.
	if err := os.WriteFile(filepath.Join(dir, "journal.log"),
		append(preSnap, postSnap...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	snap, tail, err := s2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(snap, []byte(`"covered"`)) {
		t.Errorf("snapshot = %q", snap)
	}
	if len(tail) != 1 || tail[0].Op != "c" || tail[0].Seq != 3 {
		t.Fatalf("tail = %+v, want only the post-snapshot record c", tail)
	}
}

func TestFileStoreFaultInjection(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	s.SetFaults(faults.New(faults.Config{Seed: 1, JournalAppend: 1, SnapshotWrite: 1}))

	if err := s.Append(&Record{Op: "a"}); err == nil {
		t.Fatal("Append with JournalAppend=1 succeeded")
	}
	if err := s.WriteSnapshot([]byte("x")); err == nil {
		t.Fatal("WriteSnapshot with SnapshotWrite=1 succeeded")
	}
	st := s.Stats()
	if st.AppendErrors != 1 || st.SnapshotErrors != 1 {
		t.Errorf("stats = %+v, want 1 append error and 1 snapshot error", st)
	}
	// The failed append consumed a sequence number; replay tolerates the
	// gap, and the store keeps working once faults are cleared.
	s.SetFaults(nil)
	appendT(t, s, Record{Op: "b"})
	_, tail, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(tail) != 1 || tail[0].Op != "b" || tail[0].Seq != 2 {
		t.Fatalf("tail = %+v, want [b] at seq 2", tail)
	}
}

func TestFileStoreAppendAfterClose(t *testing.T) {
	s := openT(t, t.TempDir())
	s.Close()
	if err := s.Append(&Record{Op: "a"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}
