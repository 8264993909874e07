package datastore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"deepsea/internal/faults"
)

const (
	journalName  = "journal.log"
	snapshotName = "snapshot.json"
)

// snapshotFile is the on-disk snapshot envelope: the caller's opaque
// payload plus the journal sequence it covers through, so Load can drop
// any journal prefix the snapshot already contains.
type snapshotFile struct {
	Seq  uint64          `json:"seq"`
	Data json.RawMessage `json:"data"`
}

// FileStore is the file-backed Store: one directory holding an
// append-only journal of CRC-protected JSON lines plus a snapshot file
// replaced atomically via write-temp + fsync + rename. Appends are
// buffered by the OS but written synchronously by the process, so a
// kill -9 loses at most what the kernel had not flushed — and a machine
// that stays up loses nothing. Flush (called on drain) forces an fsync
// for machine-crash durability.
//
// Journal line format, one record per line:
//
//	<crc32c-hex> <json>\n
//
// The checksum covers the JSON payload. A crash mid-append leaves a torn
// final line, which Open repairs by truncating the journal back to its
// last intact record. A line that passes its checksum and still does
// not decode is not a torn tail: Open refuses the journal with
// ErrJournalFormat.
type FileStore struct {
	dir    string
	faults *faults.Injector

	mu      sync.Mutex
	journal *os.File
	seq     uint64 // last assigned sequence number
	snapSeq uint64 // sequence the durable snapshot covers through

	records  uint64
	bytes    int64
	appendE  uint64
	snaps    uint64
	snapE    uint64
	tornFix  uint64
	lastErr  error
	journalW *bufio.Writer
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrJournalFormat reports a journal line whose checksum verifies but
// whose payload does not decode as a Record. A torn append fails its
// checksum; a line that passes it was written whole, by a build with
// another record format (or a bug), and every record behind it is
// intact. Open and Load return it, wrapped with the position, and leave
// the file untouched — truncating there would silently discard history.
var ErrJournalFormat = errors.New("datastore: journal record passes its checksum but does not decode")

// Open opens (creating if needed) a file-backed store rooted at dir. It
// repairs a torn journal tail left by a crash and positions the sequence
// counter after the last durable record, so new appends continue the
// existing history. A journal in another record format is refused with
// ErrJournalFormat and not modified.
func Open(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("datastore: open %s: %w", dir, err)
	}
	s := &FileStore{dir: dir}

	if snap, err := s.readSnapshotFile(); err != nil {
		return nil, err
	} else if snap != nil {
		s.snapSeq = snap.Seq
		s.seq = snap.Seq
	}

	jpath := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jpath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("datastore: open journal: %w", err)
	}
	// Scan the existing journal to find the end of the intact prefix and
	// the highest sequence number; truncate away a torn tail so new
	// appends don't land behind an unparseable line.
	validEnd, lastSeq, _, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > validEnd {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("datastore: repair torn journal tail: %w", err)
		}
		s.tornFix++
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("datastore: seek journal end: %w", err)
	}
	if lastSeq > s.seq {
		s.seq = lastSeq
	}
	s.journal = f
	s.journalW = bufio.NewWriterSize(f, 1<<16)
	return s, nil
}

// SetFaults attaches a fault injector; nil runs fault-free.
func (s *FileStore) SetFaults(in *faults.Injector) { s.faults = in }

// Append assigns the record the next sequence number and writes it to
// the journal. On error (including an injected JournalAppend fault) the
// record is dropped and the error counted; the sequence number is still
// consumed, which is harmless — replay tolerates gaps.
func (s *FileStore) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		s.appendE++
		return fmt.Errorf("datastore: append to closed store")
	}
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	// Hand the line to the kernel immediately: process death (kill -9)
	// then loses nothing, only an OS crash can drop unflushed bytes.
	if err := s.journalW.Flush(); err != nil {
		s.appendE++
		s.lastErr = err
		return fmt.Errorf("datastore: append: %w", err)
	}
	return nil
}

// AppendGroup journals a batch under one lock acquisition with a single
// trailing flush. Failed records are counted and skipped like in Append;
// the first error is returned after the rest of the group has been
// attempted. Only the benchmark's tracing store reaches it (see Store).
func (s *FileStore) AppendGroup(recs []*Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		s.appendE += uint64(len(recs))
		return fmt.Errorf("datastore: append to closed store")
	}
	var first error
	for _, rec := range recs {
		if err := s.appendLocked(rec); err != nil && first == nil {
			first = err
		}
	}
	if err := s.journalW.Flush(); err != nil {
		s.appendE++
		s.lastErr = err
		if first == nil {
			first = fmt.Errorf("datastore: append: %w", err)
		}
	}
	return first
}

// appendLocked encodes and buffers one record; the caller holds s.mu,
// has checked the store is open, and flushes afterwards.
func (s *FileStore) appendLocked(rec *Record) error {
	s.seq++
	rec.Seq = s.seq
	if err := s.faults.Check(faults.JournalAppend, rec.Op); err != nil {
		s.appendE++
		s.lastErr = err
		return fmt.Errorf("datastore: append: %w", err)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		s.appendE++
		s.lastErr = err
		return fmt.Errorf("datastore: encode record: %w", err)
	}
	sum := crc32.Checksum(payload, crcTable)
	line := make([]byte, 0, len(payload)+12)
	line = append(line, []byte(fmt.Sprintf("%08x ", sum))...)
	line = append(line, payload...)
	line = append(line, '\n')
	if _, err := s.journalW.Write(line); err != nil {
		s.appendE++
		s.lastErr = err
		return fmt.Errorf("datastore: append: %w", err)
	}
	s.records++
	s.bytes += int64(len(line))
	return nil
}

// WriteSnapshot atomically replaces the snapshot with data, covering
// every record appended so far, then truncates the journal. A crash
// between the rename and the truncate is safe: the journal's surviving
// prefix holds only sequence numbers the snapshot already covers, which
// Load filters out.
func (s *FileStore) WriteSnapshot(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.faults.Check(faults.SnapshotWrite, "snapshot"); err != nil {
		s.snapE++
		s.lastErr = err
		return fmt.Errorf("datastore: snapshot: %w", err)
	}
	env, err := json.Marshal(snapshotFile{Seq: s.seq, Data: data})
	if err != nil {
		s.snapE++
		s.lastErr = err
		return fmt.Errorf("datastore: encode snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	final := filepath.Join(s.dir, snapshotName)
	if err := writeFileSync(tmp, env); err != nil {
		s.snapE++
		s.lastErr = err
		return fmt.Errorf("datastore: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		s.snapE++
		s.lastErr = err
		return fmt.Errorf("datastore: publish snapshot: %w", err)
	}
	syncDir(s.dir)
	// The snapshot is durable; the journaled prefix is now redundant.
	if s.journal != nil {
		if err := s.journal.Truncate(0); err != nil {
			s.snapE++
			s.lastErr = err
			return fmt.Errorf("datastore: truncate journal: %w", err)
		}
		if _, err := s.journal.Seek(0, 0); err != nil {
			s.snapE++
			s.lastErr = err
			return fmt.Errorf("datastore: rewind journal: %w", err)
		}
	}
	s.snapSeq = s.seq
	s.snaps++
	return nil
}

// Load returns the durable snapshot payload (nil if none) and the
// journal records appended after it, in order. It is tolerant of the
// snapshot/journal overlap a crash can leave: records with sequence
// numbers the snapshot covers are dropped.
func (s *FileStore) Load() ([]byte, []Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var data []byte
	var snapSeq uint64
	if snap, err := s.readSnapshotFile(); err != nil {
		return nil, nil, err
	} else if snap != nil {
		data = snap.Data
		snapSeq = snap.Seq
	}
	if s.journal == nil {
		return data, nil, nil
	}
	if _, err := s.journal.Seek(0, 0); err != nil {
		return nil, nil, fmt.Errorf("datastore: rewind journal: %w", err)
	}
	_, _, recs, err := scanJournal(s.journal)
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.journal.Seek(0, 2); err != nil {
		return nil, nil, fmt.Errorf("datastore: seek journal end: %w", err)
	}
	tail := recs[:0]
	for _, r := range recs {
		if r.Seq > snapSeq {
			tail = append(tail, r)
		}
	}
	return data, tail, nil
}

// Flush forces journal bytes to stable storage (fsync).
func (s *FileStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	if err := s.journalW.Flush(); err != nil {
		return err
	}
	return s.journal.Sync()
}

// Close flushes and releases the journal; further appends fail.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	ferr := s.journalW.Flush()
	serr := s.journal.Sync()
	cerr := s.journal.Close()
	s.journal = nil
	s.journalW = nil
	if ferr != nil {
		return ferr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// Stats returns a snapshot of the store's counters.
func (s *FileStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Records:         s.records,
		Bytes:           s.bytes,
		AppendErrors:    s.appendE,
		Snapshots:       s.snaps,
		SnapshotErrors:  s.snapE,
		TornTailRepairs: s.tornFix,
		LastSeq:         s.seq,
		SnapshotSeq:     s.snapSeq,
	}
}

// readSnapshotFile reads and decodes the snapshot envelope, returning
// nil if no snapshot exists yet.
func (s *FileStore) readSnapshotFile() (*snapshotFile, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("datastore: read snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("datastore: decode snapshot: %w", err)
	}
	return &snap, nil
}

// scanJournal reads the journal from the current offset, returning the
// byte offset of the end of the intact prefix, the highest sequence seen
// and the decoded records. It stops — without error — at the first torn
// or corrupt line, which is the expected shape of a crashed journal; a
// line that is whole but undecodable is ErrJournalFormat.
func scanJournal(f *os.File) (validEnd int64, lastSeq uint64, recs []Record, err error) {
	if _, err := f.Seek(0, 0); err != nil {
		return 0, 0, nil, fmt.Errorf("datastore: rewind journal: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<16)
	var off int64
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil {
			// EOF with a partial line (no trailing newline) is a torn
			// append: stop at the last intact record.
			return off, lastSeq, recs, nil
		}
		rec, ok, derr := decodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if derr != nil {
			return 0, 0, nil, fmt.Errorf("%w: line %d at byte %d, after seq %d: %v",
				ErrJournalFormat, len(recs)+1, off, lastSeq, derr)
		}
		if !ok {
			return off, lastSeq, recs, nil
		}
		off += int64(len(line))
		if rec.Seq > lastSeq {
			lastSeq = rec.Seq
		}
		recs = append(recs, rec)
	}
}

// decodeLine checks one journal line's checksum and decodes its record.
// ok is false for a line that is not intact (bad frame or checksum);
// err is set for a line that is intact and does not decode.
func decodeLine(line []byte) (rec Record, ok bool, err error) {
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 {
		return Record{}, false, nil
	}
	want, perr := strconv.ParseUint(string(line[:sp]), 16, 32)
	if perr != nil {
		return Record{}, false, nil
	}
	payload := line[sp+1:]
	if crc32.Checksum(payload, crcTable) != uint32(want) {
		return Record{}, false, nil
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, false, err
	}
	return rec, true, nil
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file survives a machine
// crash. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
