package wire

import (
	"errors"
	"math/bits"

	"pvfscache/internal/blockio"
)

// PeerGet asks a peer node's cache for several whole blocks of one file
// in a single round trip — the global cache's vectored probe: a node that
// misses locally sends each primary home node the indexes of every
// missing block it owns, before going to the iods. Epoch is the
// membership epoch the requester routed with; a peer holding a different
// view answers StatusStaleEpoch so the requester refetches the view
// before retrying (epoch 0 on either side skips the check — static
// rings).
type PeerGet struct {
	File    blockio.FileID
	Epoch   uint64
	Indexes []int64
}

// PeerGetResp answers a PeerGet. Found holds one flag per requested index,
// in request order; Data packs the whole blocks that were found, in the
// same order, with no padding. On the wire Found travels as a bitmap (bit
// i%8 of byte i/8) whose unused high bits must be zero, and Data is the
// frame's tail, so a decoded response aliases the frame like
// ReadBlocksResp. CheckBlocks validates a response against the block size
// only the requester knows.
type PeerGetResp struct {
	Status Status
	Found  []bool
	Data   []byte
}

// PeerPutEntry names one block of a PeerPut.
type PeerPutEntry struct {
	File  blockio.FileID
	Index int64
	Owner uint32 // iod index storing the block
}

// PeerPut pushes whole blocks into a peer node's cache — the global
// cache's block placement: after fetching blocks from an iod, a node
// forwards copies to each block's primary home node, coalescing
// everything queued for one primary into one message, so that later
// misses anywhere in the cluster can be served from cluster memory before
// touching the iod. Data packs one whole block per entry, in entry order.
type PeerPut struct {
	Epoch   uint64 // sender's membership epoch (0 = unchecked, static rings)
	Entries []PeerPutEntry
	Data    []byte
}

// PeerPutAck acknowledges a PeerPut.
type PeerPutAck struct{ Status Status }

// Global-cache message types (extension group). The vectored shapes took
// fresh numbers — the single-block PeerGet, PeerGetResp and PeerPut used
// 0x0501–0x0503 — so a peer speaking that older protocol rejects them as
// unknown types instead of misparsing them.
const (
	TPeerPutAck  Type = 0x0504
	TPeerGet     Type = 0x0505
	TPeerGetResp Type = 0x0506
	TPeerPut     Type = 0x0507
)

// WireType implementations.
func (*PeerGet) WireType() Type     { return TPeerGet }
func (*PeerGetResp) WireType() Type { return TPeerGetResp }
func (*PeerPut) WireType() Type     { return TPeerPut }
func (*PeerPutAck) WireType() Type  { return TPeerPutAck }

// MaxFrameBlocks is the most whole blocks of size bs that one vectored
// message may move — a fetch's extents, a peer probe's indexes, a peer
// push's entries — and still fit a frame: ValidateExtents' MaxMessageSize/2
// bound, with one block of slack.
func MaxFrameBlocks(bs int) int {
	n := MaxMessageSize/2/bs - 1
	if n < 1 {
		n = 1
	}
	return n
}

// errPeerData reports packed peer block data that cannot split into whole,
// equally sized blocks.
var errPeerData = errors.New("peer block data does not tile its entries")

// checkPacked reports whether data can hold exactly n equally sized
// blocks: none at all when n is zero.
func checkPacked(n int, data []byte) error {
	if n == 0 && len(data) != 0 || n != 0 && len(data)%n != 0 {
		return errPeerData
	}
	return nil
}

// CheckBlocks reports whether the response answers exactly n requested
// indexes with whole bs-byte blocks: one flag per index, and Data holding
// exactly one block per found flag. A healthy peer always passes; anything
// else is a buggy or hostile peer whose bytes must not be sliced or
// installed.
func (m *PeerGetResp) CheckBlocks(n, bs int) bool {
	found := 0
	for _, f := range m.Found {
		if f {
			found++
		}
	}
	return len(m.Found) == n && len(m.Data) == found*bs
}

func (m *PeerGet) append(b []byte) []byte {
	b = apU64(b, uint64(m.File))
	b = apU64(b, m.Epoch)
	b = apU32(b, uint32(len(m.Indexes)))
	for _, idx := range m.Indexes {
		b = apI64(b, idx)
	}
	return b
}

func (m *PeerGet) decode(r *reader) error {
	f, err := r.u64()
	if err != nil {
		return err
	}
	m.File = blockio.FileID(f)
	if m.Epoch, err = r.u64(); err != nil {
		return err
	}
	n, err := r.count(8)
	if err != nil {
		return err
	}
	m.Indexes = make([]int64, 0, n)
	for i := 0; i < n; i++ {
		idx, err := r.i64()
		if err != nil {
			return err
		}
		m.Indexes = append(m.Indexes, idx)
	}
	return nil
}

func (m *PeerGetResp) appendHead(b []byte) []byte {
	b = apU16(b, uint16(m.Status))
	b = apU32(b, uint32(len(m.Found)))
	for i := 0; i < len(m.Found); i += 8 {
		var bm byte
		for j := 0; j < 8 && i+j < len(m.Found); j++ {
			if m.Found[i+j] {
				bm |= 1 << j
			}
		}
		b = apU8(b, bm)
	}
	return apU32(b, uint32(len(m.Data)))
}

func (m *PeerGetResp) tail() []byte { return m.Data }

func (m *PeerGetResp) append(b []byte) []byte { return append(m.appendHead(b), m.Data...) }

func (m *PeerGetResp) decode(r *reader) error {
	s, err := r.u16()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	n, err := r.u32()
	if err != nil {
		return err
	}
	// The count guard, in bits: a flag count the bitmap bytes left in
	// the payload cannot hold is rejected before allocating.
	nbytes := (int64(n) + 7) / 8
	if nbytes > int64(len(r.buf)-r.pos) {
		return errTruncated
	}
	m.Found = make([]bool, n)
	popcount := 0
	for i := 0; i < int(nbytes); i++ {
		bm, err := r.u8()
		if err != nil {
			return err
		}
		if used := int(n) - 8*i; used < 8 && bm>>used != 0 {
			// Set padding bits would not survive re-encoding.
			return errPeerData
		}
		popcount += bits.OnesCount8(bm)
		for j := 0; j < 8 && 8*i+j < int(n); j++ {
			m.Found[8*i+j] = bm&(1<<j) != 0
		}
	}
	if m.Data, err = r.bytes(); err != nil {
		return err
	}
	return checkPacked(popcount, m.Data)
}

func (m *PeerPut) appendHead(b []byte) []byte {
	b = apU64(b, m.Epoch)
	b = apU32(b, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		b = apU64(b, uint64(e.File))
		b = apI64(b, e.Index)
		b = apU32(b, e.Owner)
	}
	return apU32(b, uint32(len(m.Data)))
}

func (m *PeerPut) tail() []byte { return m.Data }

func (m *PeerPut) append(b []byte) []byte { return append(m.appendHead(b), m.Data...) }

func (m *PeerPut) decode(r *reader) error {
	var err error
	if m.Epoch, err = r.u64(); err != nil {
		return err
	}
	n, err := r.count(20) // file + index + owner per entry
	if err != nil {
		return err
	}
	m.Entries = make([]PeerPutEntry, 0, n)
	for i := 0; i < n; i++ {
		var e PeerPutEntry
		f, err := r.u64()
		if err != nil {
			return err
		}
		e.File = blockio.FileID(f)
		if e.Index, err = r.i64(); err != nil {
			return err
		}
		if e.Owner, err = r.u32(); err != nil {
			return err
		}
		m.Entries = append(m.Entries, e)
	}
	if m.Data, err = r.bytes(); err != nil {
		return err
	}
	return checkPacked(n, m.Data)
}

func (m *PeerPutAck) append(b []byte) []byte { return apU16(b, uint16(m.Status)) }

func (m *PeerPutAck) decode(r *reader) error {
	s, err := r.u16()
	m.Status = Status(s)
	return err
}
