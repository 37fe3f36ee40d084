// Package simdisk is the discrete-event simulator's disk: a
// seek/rotation/transfer-rate timing model calibrated to the paper's
// 20 GB IDE drives. It charges access times only; the bytes an iod
// stores live in a storage.Backend (see internal/storage/mem).
package simdisk

import (
	"sync"
	"time"

	"pvfscache/internal/blockio"
)

// Model computes access times for a single disk. It follows the classic
// seek + rotation + transfer decomposition, with a track-cache shortcut:
// an access that continues exactly where the previous one on the same file
// ended pays transfer time only, matching the sequential read-ahead
// behaviour of the IDE drives in the paper's testbed.
//
// A Model is safe for concurrent use; the sequential-position tracking is
// serialized, which also reflects that one disk services one request at a
// time.
type Model struct {
	// AvgSeek is the average head seek time charged to non-sequential
	// accesses.
	AvgSeek time.Duration
	// AvgRotation is the average rotational latency (half a revolution).
	AvgRotation time.Duration
	// TransferRate is the media transfer rate in bytes per second.
	TransferRate float64

	mu       sync.Mutex
	lastFile blockio.FileID
	lastEnd  int64
	valid    bool
}

// DefaultModel returns a model calibrated to the paper's 20 GB Maxtor IDE
// class drive: ~9 ms average seek, 7200 rpm (4.17 ms average rotational
// latency), 20 MB/s media rate.
func DefaultModel() *Model {
	return &Model{
		AvgSeek:      9 * time.Millisecond,
		AvgRotation:  4170 * time.Microsecond,
		TransferRate: 20e6,
	}
}

// AccessTime returns the service time for reading or writing length bytes
// at the given file offset, updating the sequential-position state.
func (m *Model) AccessTime(file blockio.FileID, offset, length int64) time.Duration {
	if length < 0 {
		length = 0
	}
	m.mu.Lock()
	sequential := m.valid && m.lastFile == file && m.lastEnd == offset
	m.lastFile = file
	m.lastEnd = offset + length
	m.valid = true
	m.mu.Unlock()

	d := m.TransferTime(length)
	if !sequential {
		d += m.AvgSeek + m.AvgRotation
	}
	return d
}

// TransferTime returns the pure media transfer time for length bytes.
func (m *Model) TransferTime(length int64) time.Duration {
	if length <= 0 || m.TransferRate <= 0 {
		return 0
	}
	return time.Duration(float64(length) / m.TransferRate * float64(time.Second))
}

// Reset clears the sequential-position state (e.g. between experiments).
func (m *Model) Reset() {
	m.mu.Lock()
	m.valid = false
	m.mu.Unlock()
}
