package datastore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"deepsea/internal/relation"
)

// intactPrefix is the journal scan's contract written out longhand: the
// records of the leading whole lines whose checksum frame verifies, the
// byte length of those lines, and whether a verified line in that run
// fails to decode (a format mismatch, not a torn tail).
func intactPrefix(raw []byte) (recs []Record, end int, formatErr bool) {
	for {
		nl := bytes.IndexByte(raw[end:], '\n')
		if nl < 0 {
			return recs, end, false
		}
		line := raw[end : end+nl]
		if len(line) < 9 || line[8] != ' ' {
			return recs, end, false
		}
		sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
		if err != nil || crc32.Checksum(line[9:], crcTable) != uint32(sum) {
			return recs, end, false
		}
		var rec Record
		if err := json.Unmarshal(line[9:], &rec); err != nil {
			return nil, 0, true
		}
		recs = append(recs, rec)
		end += nl + 1
	}
}

// FuzzScanJournal writes its input as a journal file and opens it. No
// input panics. A refused journal is ErrJournalFormat and left
// byte-for-byte alone; an accepted one is truncated to its intact
// prefix, Load returns exactly that prefix's records, and an Append
// after reopening comes back behind them.
//
//	go test -run '^$' -fuzz FuzzScanJournal -fuzztime 5s ./internal/datastore
func FuzzScanJournal(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	rows := relation.NewTable(relation.Schema{Name: "v", Cols: []relation.Column{
		{Name: "k", Type: relation.Int, Ordered: true, Lo: 0, Hi: 9},
		{Name: "s", Type: relation.String},
	}})
	rows.Append(relation.Row{relation.IntVal(7), relation.StringVal("x")})
	for _, rec := range []Record{
		{Op: "ensure_view", View: "v1"},
		{Op: "put_file", Path: "/v/1", Size: 1, Rows: rows},
		{Op: "clock", T: 2.5},
	} {
		if err := s.Append(&rec); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	valid, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(valid, []byte("\n"))
	flipped := bytes.Clone(valid)
	digit := len(lines[0]) // the second line's first checksum digit
	if flipped[digit] == '0' {
		flipped[digit] = '1'
	} else {
		flipped[digit] = '0'
	}
	notJSON := []byte("not json")
	notJSONLine := fmt.Appendf(bytes.Clone(lines[0]), "%08x %s\n", crc32.Checksum(notJSON, crcTable), notJSON)

	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(flipped)
	f.Add(append(notJSONLine, lines[2]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want, end, formatErr := intactPrefix(raw)
		s, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrJournalFormat) {
				t.Fatalf("Open: %v, want ErrJournalFormat or success", err)
			}
			if !formatErr {
				t.Fatalf("Open refused a journal whose intact prefix decodes: %v", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
				t.Fatalf("a refused journal was modified: %q, was %q", after, raw)
			}
			return
		}
		if formatErr {
			s.Close()
			t.Fatal("Open accepted a verified line that does not decode")
		}
		// With no snapshot, Load drops seq 0, which no Append assigns.
		var lastSeq uint64
		kept := want[:0:0]
		for _, r := range want {
			lastSeq = max(lastSeq, r.Seq)
			if r.Seq > 0 {
				kept = append(kept, r)
			}
		}
		_, got, err := s.Load()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, raw[:end]) {
			t.Fatalf("Open left %q, want the intact prefix %q", after, raw[:end])
		}
		if len(got) != len(kept) || (len(got) > 0 && !reflect.DeepEqual(got, kept)) {
			t.Fatalf("Load = %+v, want %+v", got, kept)
		}

		s, err = Open(dir)
		if err != nil {
			t.Fatalf("reopening the repaired journal: %v", err)
		}
		defer s.Close()
		if err := s.Append(&Record{Op: "after"}); err != nil {
			t.Fatal(err)
		}
		_, got, err = s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if lastSeq == ^uint64(0) {
			return // the next sequence number wraps to 0, which Load drops
		}
		if len(got) != len(kept)+1 || got[len(kept)].Op != "after" || got[len(kept)].Seq != lastSeq+1 ||
			(len(kept) > 0 && !reflect.DeepEqual(got[:len(kept)], kept)) {
			t.Fatalf("after reopening and one Append, Load = %+v, want %+v then op after at seq %d", got, kept, lastSeq+1)
		}
	})
}
