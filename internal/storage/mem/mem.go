// Package mem is the in-memory storage.Backend: the sparse-file store
// the system has always run on. It is the default backend — tests,
// benchmarks and the examples run on it — and none of its operations
// can fail until Crash. Durability is explicitly nil: the documented
// durability window of this backend is "until the process exits", and
// Crash models exactly that by discarding every file.
package mem

import (
	"errors"
	"sync"

	"pvfscache/internal/blockio"
	"pvfscache/internal/storage"
)

// Backend holds the strip data an iod serves. Files are sparse: reads
// past written data return short, and callers treat missing bytes as
// zero. It honors the storage.Backend ordering contract: a WriteAt that
// returns after a Delete returned recreates the file, and never lands on
// the deleted file's detached buffer (see fileData.dead).
type Backend struct {
	mu      sync.RWMutex
	files   map[blockio.FileID]*fileData
	crashed bool // set by Crash; every later operation fails
}

var (
	_ storage.Backend = (*Backend)(nil)
	_ storage.Crasher = (*Backend)(nil)
)

// ErrCrashed is returned by every operation after Crash.
var ErrCrashed = errors.New("mem backend: crashed")

// fileData is one file's backing buffer. dead is set (under mu) by
// Delete after the entry leaves the file map: an operation that captured
// the pointer before the delete re-looks the file up instead of touching
// the orphan, so an acknowledged write can never vanish into a buffer no
// reader can reach.
type fileData struct {
	mu   sync.RWMutex
	data []byte
	dead bool
}

// testHookWriteLookup, when non-nil, runs in WriteAt between the map
// lookup and taking the file lock — the window the delete/write race
// regression test widens deterministically.
var testHookWriteLookup func()

// New returns an empty backend.
func New() *Backend {
	return &Backend{files: make(map[blockio.FileID]*fileData)}
}

// file looks a file up, creating it when create is set; f is nil for an
// absent file that is not created.
func (b *Backend) file(id blockio.FileID, create bool) (*fileData, error) {
	b.mu.RLock()
	f, crashed := b.files[id], b.crashed
	b.mu.RUnlock()
	if crashed {
		return nil, ErrCrashed
	}
	if f != nil || !create {
		return f, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed {
		return nil, ErrCrashed
	}
	if f = b.files[id]; f == nil {
		f = &fileData{}
		b.files[id] = f
	}
	return f, nil
}

// WriteAt implements storage.Backend. Growth doubles capacity, so a
// sequential stream of extending writes — the flusher's steady state —
// costs amortized O(1) reallocations rather than re-copying the whole
// file per write. An empty write creates no file.
func (b *Backend) WriteAt(id blockio.FileID, off int64, p []byte) error {
	if len(p) == 0 {
		return b.live()
	}
	for {
		f, err := b.file(id, true)
		if err != nil {
			return err
		}
		if testHookWriteLookup != nil {
			testHookWriteLookup()
		}
		f.mu.Lock()
		if f.dead {
			// A concurrent Delete detached this buffer after our lookup.
			// Retry: the fresh lookup recreates the file, so the write is
			// observable — the delete is ordered before it.
			f.mu.Unlock()
			continue
		}
		end := off + int64(len(p))
		if int64(len(f.data)) < end {
			if int64(cap(f.data)) >= end {
				// Capacity reserved by an earlier growth: the extension bytes
				// were zeroed when the backing array was allocated and are
				// untouched since (data never shrinks), so sparse reads of the
				// gap stay zero.
				f.data = f.data[:end]
			} else {
				newCap := int64(2 * cap(f.data))
				if newCap < end {
					newCap = end
				}
				grown := make([]byte, end, newCap)
				copy(grown, f.data)
				f.data = grown
			}
		}
		copy(f.data[off:end], p)
		f.mu.Unlock()
		return nil
	}
}

// ReadAt implements storage.Backend: it copies up to len(p) bytes from
// offset off into p and returns the count, short when the range extends
// past the stored size. Missing data is simply absent, never an error.
func (b *Backend) ReadAt(id blockio.FileID, off int64, p []byte) (int, error) {
	for {
		f, err := b.file(id, false)
		if f == nil {
			return 0, err
		}
		f.mu.RLock()
		if f.dead {
			f.mu.RUnlock()
			continue
		}
		n := 0
		if off < int64(len(f.data)) {
			n = copy(p, f.data[off:])
		}
		f.mu.RUnlock()
		return n, nil
	}
}

// Size implements storage.Backend (0 for an absent file).
func (b *Backend) Size(id blockio.FileID) (int64, error) {
	for {
		f, err := b.file(id, false)
		if f == nil {
			return 0, err
		}
		f.mu.RLock()
		if f.dead {
			f.mu.RUnlock()
			continue
		}
		n := int64(len(f.data))
		f.mu.RUnlock()
		return n, nil
	}
}

// Delete implements storage.Backend. The buffer is marked dead after it
// leaves the map so in-flight operations that already hold the pointer
// retry against the live map instead of using the orphan.
func (b *Backend) Delete(id blockio.FileID) error {
	b.mu.Lock()
	if b.crashed {
		b.mu.Unlock()
		return ErrCrashed
	}
	f := b.files[id]
	delete(b.files, id)
	b.mu.Unlock()
	if f != nil {
		f.mu.Lock()
		f.dead = true
		f.mu.Unlock()
	}
	return nil
}

// Sync implements storage.Backend: memory has nothing to make durable.
func (b *Backend) Sync() error { return b.live() }

// live reports ErrCrashed after Crash.
func (b *Backend) live() error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.crashed {
		return ErrCrashed
	}
	return nil
}

// Close implements storage.Backend.
func (b *Backend) Close() error { return nil }

// Crash implements storage.Crasher: the process died and memory is
// gone. Every later operation fails with ErrCrashed; a "restarted"
// daemon gets a fresh empty backend and has lost every byte — which is
// exactly why the chaos restart fault requires the disk backend.
func (b *Backend) Crash() error {
	b.mu.Lock()
	b.crashed = true
	b.files = nil
	b.mu.Unlock()
	return nil
}
