// Package disk is the iod's durable storage engine: a real on-disk
// backend behind storage.Backend, built on the BFile pattern — buffered
// writes with an in-memory dirty cache, flushed to shard-per-file data
// files on filesystem-friendly boundaries — fronted by a write-ahead
// journal so a crash mid-flush replays instead of corrupting.
//
// Layout: one directory per backend holding `f-<16 hex>.dat` (one data
// file per PVFS file ID, the shard-per-file split) plus `wal.log`. Every
// WriteAt appends a checksummed journal record and pushes it through the
// buffered writer to the operating system before acknowledging, then
// stages the bytes in an in-memory overlay; once the overlay passes
// Options.FlushThreshold the store checkpoints — applies the overlay to
// the data files with positional writes, fsyncs them, and truncates the
// journal. Reads serve from the data file with the overlay applied on
// top, so acknowledged bytes are always observable.
//
// Durability window: an acknowledged write survives a *process* crash
// unconditionally (its journal record reached the OS before the ack).
// What survives power loss is governed by Options.Fsync: SyncAlways
// fsyncs the journal every record, SyncInterval at most every
// FsyncInterval, SyncOnClose only at checkpoint/Sync/Close. Checkpoint
// always fsyncs data files and the backend directory (shard creations
// and unlinks) before truncating the journal, so the journal is never
// the only durable copy of applied records.
package disk

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/storage"
)

// Policy selects when the journal is fsynced.
type Policy int

const (
	// SyncOnClose (default) fsyncs only at checkpoint, Sync, and Close.
	// Fastest; power-loss window is everything since the last checkpoint.
	SyncOnClose Policy = iota
	// SyncInterval fsyncs the journal opportunistically once
	// Options.FsyncInterval has elapsed since the last sync.
	SyncInterval
	// SyncAlways fsyncs the journal on every write — the paper's O_SYNC
	// shape. Slowest, zero power-loss window.
	SyncAlways
)

// String returns the knob spelling accepted by ParsePolicy.
func (p Policy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "osync"
	default:
		return "onclose"
	}
}

// ParsePolicy maps the -fsync flag spellings onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "onclose", "on-close":
		return SyncOnClose, nil
	case "interval":
		return SyncInterval, nil
	case "osync", "always":
		return SyncAlways, nil
	}
	return SyncOnClose, fmt.Errorf("disk: unknown fsync policy %q (want osync, interval, or onclose)", s)
}

// Options configures a Store.
type Options struct {
	// Dir is the backend's directory; created if absent.
	Dir string
	// Fsync is the journal fsync policy (default SyncOnClose).
	Fsync Policy
	// FsyncInterval bounds the power-loss window under SyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// FlushThreshold is the overlay size (bytes) that triggers a
	// checkpoint to the data files (default 1 MiB — the
	// filesystem-friendly boundary: one large positional write burst
	// per file instead of per-strip dribble).
	FlushThreshold int64
}

const (
	defaultFsyncInterval  = 100 * time.Millisecond
	defaultFlushThreshold = 1 << 20

	journalName = "wal.log"
	dataPrefix  = "f-"
	dataSuffix  = ".dat"
)

// pwrite is one staged overlay write, applied over the data file in
// append order on reads and at checkpoint.
type pwrite struct {
	off  int64
	data []byte
}

// file is the in-memory state for one shard file.
type file struct {
	f       *os.File // lazily opened data file handle
	size    int64    // logical size: data file extent + staged overlay
	pending []pwrite // overlay not yet applied to the data file
}

// Store is the on-disk storage.Backend. All operations serialize on one
// mutex: the iod already fans work out per daemon, and the engine's hot
// cost is the journal append, which must be ordered anyway.
type Store struct {
	mu           sync.Mutex
	dir          string
	opts         Options
	files        map[blockio.FileID]*file
	journal      *os.File
	jw           *bufio.Writer
	pendingBytes int64
	lastSync     time.Time
	recovered    int
	crashed      bool
	closed       bool
}

var (
	_ storage.Backend = (*Store)(nil)
	_ storage.Crasher = (*Store)(nil)
)

// ErrCrashed is returned by every operation after Crash.
var ErrCrashed = errors.New("disk backend: crashed")

// Open opens (or creates) the backend in opts.Dir, replaying any
// journal left by a crash before returning. After Open the journal is
// empty and every recovered byte is durable in the data files.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("disk: Options.Dir is required")
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = defaultFsyncInterval
	}
	if opts.FlushThreshold <= 0 {
		opts.FlushThreshold = defaultFlushThreshold
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      opts.Dir,
		opts:     opts,
		files:    make(map[blockio.FileID]*file),
		lastSync: time.Now(),
	}
	if err := s.scanDataFiles(); err != nil {
		return nil, err
	}
	j, err := os.OpenFile(filepath.Join(opts.Dir, journalName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	s.journal = j
	if err := s.replay(); err != nil {
		j.Close()
		s.closeFiles()
		return nil, err
	}
	s.jw = bufio.NewWriter(j)
	return s, nil
}

// scanDataFiles registers every existing shard file and its on-disk
// size.
func (s *Store) scanDataFiles() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, dataPrefix) || !strings.HasSuffix(name, dataSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, dataPrefix), dataSuffix)
		id, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue // not ours
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		s.files[blockio.FileID(id)] = &file{size: info.Size()}
	}
	return nil
}

// replay applies the journal's valid prefix to the data files, fsyncs
// them, and truncates the journal. A torn tail (crash mid-append) ends
// the prefix cleanly: every record past it was never acknowledged.
func (s *Store) replay() error {
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(s.journal)
	touched := make(map[blockio.FileID]bool)
	for {
		rec, err := readRecord(r)
		if err == io.EOF || err == errTorn {
			break
		}
		if err != nil {
			return err
		}
		id := blockio.FileID(rec.id)
		switch rec.kind {
		case recWrite:
			f := s.files[id]
			if f == nil {
				f = &file{}
				s.files[id] = f
			}
			df, err := s.ensureData(id, f)
			if err != nil {
				return err
			}
			if _, err := df.WriteAt(rec.data, rec.off); err != nil {
				return err
			}
			if end := rec.off + int64(len(rec.data)); end > f.size {
				f.size = end
			}
			touched[id] = true
		case recDelete:
			if err := s.removeLocked(id); err != nil {
				return err
			}
			delete(touched, id)
		}
		s.recovered++
	}
	for id := range touched {
		if f := s.files[id]; f != nil && f.f != nil {
			if err := f.f.Sync(); err != nil {
				return err
			}
		}
	}
	// Replayed shard creations and unlinks must be durable in the
	// directory before the journal is discarded.
	if err := s.syncDir(); err != nil {
		return err
	}
	if err := s.journal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return s.journal.Sync()
}

// Recovered reports how many journal records the last Open replayed.
func (s *Store) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Dir returns the backend's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) dataPath(id blockio.FileID) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", dataPrefix, uint64(id), dataSuffix))
}

// ensureData lazily opens f's shard file.
func (s *Store) ensureData(id blockio.FileID, f *file) (*os.File, error) {
	if f.f != nil {
		return f.f, nil
	}
	df, err := os.OpenFile(s.dataPath(id), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, err
	}
	f.f = df
	return df, nil
}

func (s *Store) state() error {
	if s.crashed {
		return ErrCrashed
	}
	if s.closed {
		return os.ErrClosed
	}
	return nil
}

// journalAppend writes one record, pushes it to the OS, and applies the
// fsync policy. Called with s.mu held, before the operation is staged.
func (s *Store) journalAppend(rec record) error {
	if err := appendRecord(s.jw, rec); err != nil {
		return err
	}
	// Flush the bufio layer every record: once the bytes are in the OS
	// the ack survives a process crash regardless of fsync policy.
	if err := s.jw.Flush(); err != nil {
		return err
	}
	switch s.opts.Fsync {
	case SyncAlways:
		if err := s.journal.Sync(); err != nil {
			return err
		}
		s.lastSync = time.Now()
	case SyncInterval:
		if time.Since(s.lastSync) >= s.opts.FsyncInterval {
			if err := s.journal.Sync(); err != nil {
				return err
			}
			s.lastSync = time.Now()
		}
	}
	return nil
}

// WriteAt implements storage.Backend: journal, stage in the overlay,
// checkpoint when the overlay crosses the flush threshold.
func (s *Store) WriteAt(id blockio.FileID, off int64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if off < 0 {
		return fmt.Errorf("disk: negative offset %d", off)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return err
	}
	if err := s.journalAppend(record{kind: recWrite, id: uint64(id), off: off, data: p}); err != nil {
		return err
	}
	f := s.files[id]
	if f == nil {
		f = &file{}
		s.files[id] = f
	}
	// Copy: the iod hands us pooled buffers it reuses after the ack.
	buf := make([]byte, len(p))
	copy(buf, p)
	f.pending = append(f.pending, pwrite{off: off, data: buf})
	s.pendingBytes += int64(len(buf))
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	if s.pendingBytes >= s.opts.FlushThreshold {
		return s.checkpointLocked()
	}
	return nil
}

// checkpointLocked applies every staged overlay to the data files,
// fsyncs them, and truncates the journal. Order matters: data files
// must be durable before the journal (their only other copy) is
// discarded.
func (s *Store) checkpointLocked() error {
	if s.pendingBytes == 0 {
		// Still sync the journal so Sync()/Close() honor their durability
		// promise even when nothing is staged.
		if err := s.journal.Sync(); err != nil {
			return err
		}
		s.lastSync = time.Now()
		return nil
	}
	touched := make([]*os.File, 0, len(s.files))
	for id, f := range s.files {
		if len(f.pending) == 0 {
			continue
		}
		df, err := s.ensureData(id, f)
		if err != nil {
			return err
		}
		for _, w := range f.pending {
			if _, err := df.WriteAt(w.data, w.off); err != nil {
				return err
			}
		}
		// Settle the counter per file: on a mid-loop error the remaining
		// overlays are still staged and must keep counting toward the
		// next flush, while cleared ones must not.
		s.pendingBytes -= pendingSize(f)
		f.pending = nil
		touched = append(touched, df)
	}
	for _, df := range touched {
		if err := df.Sync(); err != nil {
			return err
		}
	}
	// Shard-file creations and unlinks since the last checkpoint must be
	// durable in the directory before the journal — their only other
	// copy — is discarded.
	if err := s.syncDir(); err != nil {
		return err
	}
	if err := s.journal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := s.journal.Sync(); err != nil {
		return err
	}
	s.jw.Reset(s.journal)
	// Every overlay was applied and the journal is empty: clear whatever
	// the counter still carries (the nominal delete-record costs).
	s.pendingBytes = 0
	s.lastSync = time.Now()
	return nil
}

// syncDir fsyncs the backend directory so shard-file creations and
// unlinks survive power loss, not just a process crash.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadAt implements storage.Backend: data file bytes with the staged
// overlay applied in write order on top. Short reads past the logical
// size, nil error, absent files read zero bytes — the mem backend's
// semantics.
func (s *Store) ReadAt(id blockio.FileID, off int64, p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return 0, err
	}
	f := s.files[id]
	if f == nil || off >= f.size {
		return 0, nil
	}
	n := len(p)
	if rem := f.size - off; int64(n) > rem {
		n = int(rem)
	}
	out := p[:n]
	clear(out) // sparse gaps and unwritten data-file tail read as zero
	if f.f == nil {
		// The entry may come from the directory scan (reopened store), in
		// which case the shard file holds durable bytes outside the
		// overlay — open it regardless of staged writes. For a brand-new
		// file O_CREATE makes an empty shard, which reads as zeros.
		if _, err := s.ensureData(id, f); err != nil {
			return 0, err
		}
	}
	if _, err := f.f.ReadAt(out, off); err != nil && err != io.EOF {
		return 0, err
	}
	end := off + int64(n)
	for _, w := range f.pending {
		lo, hi := w.off, w.off+int64(len(w.data))
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		if lo < hi {
			copy(out[lo-off:hi-off], w.data[lo-w.off:hi-w.off])
		}
	}
	return n, nil
}

// Size implements storage.Backend.
func (s *Store) Size(id blockio.FileID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return 0, err
	}
	f := s.files[id]
	if f == nil {
		return 0, nil
	}
	return f.size, nil
}

// removeLocked drops a file's in-memory state and its shard file.
func (s *Store) removeLocked(id blockio.FileID) error {
	f := s.files[id]
	if f == nil {
		return nil
	}
	s.pendingBytes -= pendingSize(f)
	if f.f != nil {
		f.f.Close()
	}
	delete(s.files, id)
	if err := os.Remove(s.dataPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func pendingSize(f *file) int64 {
	var n int64
	for _, w := range f.pending {
		n += int64(len(w.data))
	}
	return n
}

// deleteRecordCost is the nominal weight a delete record adds toward
// the checkpoint trigger. Deletes stage no overlay bytes, but each one
// still grows the journal; without a charge a delete-heavy workload
// would never checkpoint and the journal would grow until Sync/Close.
const deleteRecordCost = 4096

// Delete implements storage.Backend. The mutex linearizes Delete
// against WriteAt, satisfying the ordering contract by construction.
func (s *Store) Delete(id blockio.FileID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return err
	}
	if err := s.journalAppend(record{kind: recDelete, id: uint64(id)}); err != nil {
		return err
	}
	if err := s.removeLocked(id); err != nil {
		return err
	}
	s.pendingBytes += deleteRecordCost
	if s.pendingBytes >= s.opts.FlushThreshold {
		return s.checkpointLocked()
	}
	return nil
}

// Sync implements storage.Backend: a full checkpoint, after which every
// acknowledged write is durable in the data files regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return err
	}
	return s.checkpointLocked()
}

func (s *Store) closeFiles() {
	for _, f := range s.files {
		if f.f != nil {
			f.f.Close()
			f.f = nil
		}
	}
}

// Close implements storage.Backend: checkpoint, then release every
// handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.crashed {
		return nil
	}
	err := s.checkpointLocked()
	s.closeFiles()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// Crash implements storage.Crasher: fail-stop. Handles close without a
// checkpoint and the overlay is dropped — exactly the state a killed
// process leaves. The journal keeps every acknowledged record (each was
// pushed to the OS before its ack), so Open on the same directory
// recovers byte-for-byte.
func (s *Store) Crash() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed || s.closed {
		return nil
	}
	s.crashed = true
	s.closeFiles()
	s.files = nil
	s.pendingBytes = 0
	return s.journal.Close()
}

// Files returns the number of files with stored data.
func (s *Store) Files() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}
