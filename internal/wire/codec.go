package wire

import (
	"encoding/binary"
	"errors"

	"pvfscache/internal/blockio"
)

// errTruncated reports a payload shorter than its declared fields.
var errTruncated = errors.New("truncated payload")

// reader is a cursor over a message payload. In alias mode (zero-copy
// decode, see ReadFrameAliased) bulk byte fields are returned as subslices
// of buf instead of copies, and aliased records whether any such subslice
// was actually handed out — if none was, the payload buffer can be
// recycled immediately.
type reader struct {
	buf     []byte
	pos     int
	alias   bool
	aliased bool
}

func (r *reader) u8() (byte, error) {
	if r.pos+1 > len(r.buf) {
		return 0, errTruncated
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.pos+2 > len(r.buf) {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.buf) {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.pos+8 > len(r.buf) {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *reader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

// count reads a u32 element count and validates it against the bytes left
// in the payload: each element occupies at least minElemSize encoded bytes,
// so a count the payload cannot possibly hold is rejected before any
// allocation. This keeps a hostile 4-byte count from pre-allocating
// gigabytes.
func (r *reader) count(minElemSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(minElemSize) > int64(len(r.buf)-r.pos) {
		return 0, errTruncated
	}
	return int(n), nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.pos+int(n) > len(r.buf) {
		return nil, errTruncated
	}
	if r.alias && n > 0 {
		// Zero-copy: alias the payload buffer. Full slice expression so an
		// append by the consumer cannot scribble over the next field.
		v := r.buf[r.pos : r.pos+int(n) : r.pos+int(n)]
		r.pos += int(n)
		r.aliased = true
		return v, nil
	}
	v := make([]byte, n)
	copy(v, r.buf[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return v, nil
}

// str reads a length-prefixed string. The string conversion always copies,
// so it never aliases the payload buffer even in alias mode.
func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if r.pos+int(n) > len(r.buf) {
		return "", errTruncated
	}
	v := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return v, nil
}

func (r *reader) bool() (bool, error) {
	v, err := r.u8()
	return v != 0, err
}

// append helpers.
func apU8(b []byte, v byte) []byte    { return append(b, v) }
func apU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func apU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func apU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func apI64(b []byte, v int64) []byte  { return apU64(b, uint64(v)) }
func apBytes(b, v []byte) []byte      { return append(apU32(b, uint32(len(v))), v...) }
func apStr(b []byte, v string) []byte { return append(apU32(b, uint32(len(v))), v...) }
func apBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func apMeta(b []byte, m FileMeta) []byte {
	b = apI64(b, m.Size)
	b = apU32(b, m.Base)
	b = apU32(b, m.PCount)
	return apU32(b, m.SSize)
}

func (r *reader) meta() (FileMeta, error) {
	var m FileMeta
	var err error
	if m.Size, err = r.i64(); err != nil {
		return m, err
	}
	if m.Base, err = r.u32(); err != nil {
		return m, err
	}
	if m.PCount, err = r.u32(); err != nil {
		return m, err
	}
	m.SSize, err = r.u32()
	return m, err
}

func (m *Create) append(b []byte) []byte {
	b = apStr(b, m.Name)
	b = apU32(b, m.Base)
	b = apU32(b, m.PCount)
	return apU32(b, m.SSize)
}

func (m *Create) decode(r *reader) error {
	var err error
	if m.Name, err = r.str(); err != nil {
		return err
	}
	if m.Base, err = r.u32(); err != nil {
		return err
	}
	if m.PCount, err = r.u32(); err != nil {
		return err
	}
	m.SSize, err = r.u32()
	return err
}

func (m *CreateResp) append(b []byte) []byte {
	b = apU16(b, uint16(m.Status))
	b = apU64(b, uint64(m.File))
	return apMeta(b, m.Meta)
}

func (m *CreateResp) decode(r *reader) error {
	s, err := r.u16()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	f, err := r.u64()
	if err != nil {
		return err
	}
	m.File = blockio.FileID(f)
	m.Meta, err = r.meta()
	return err
}

func (m *Open) append(b []byte) []byte { return apStr(b, m.Name) }

func (m *Open) decode(r *reader) error {
	var err error
	m.Name, err = r.str()
	return err
}

func (m *OpenResp) append(b []byte) []byte {
	b = apU16(b, uint16(m.Status))
	b = apU64(b, uint64(m.File))
	return apMeta(b, m.Meta)
}

func (m *OpenResp) decode(r *reader) error {
	s, err := r.u16()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	f, err := r.u64()
	if err != nil {
		return err
	}
	m.File = blockio.FileID(f)
	m.Meta, err = r.meta()
	return err
}

func (m *Stat) append(b []byte) []byte { return apU64(b, uint64(m.File)) }

func (m *Stat) decode(r *reader) error {
	f, err := r.u64()
	m.File = blockio.FileID(f)
	return err
}

func (m *StatResp) append(b []byte) []byte {
	b = apU16(b, uint16(m.Status))
	return apMeta(b, m.Meta)
}

func (m *StatResp) decode(r *reader) error {
	s, err := r.u16()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	m.Meta, err = r.meta()
	return err
}

func (m *Unlink) append(b []byte) []byte { return apStr(b, m.Name) }

func (m *Unlink) decode(r *reader) error {
	var err error
	m.Name, err = r.str()
	return err
}

func (m *SetSize) append(b []byte) []byte {
	b = apU64(b, uint64(m.File))
	return apI64(b, m.Size)
}

func (m *SetSize) decode(r *reader) error {
	f, err := r.u64()
	if err != nil {
		return err
	}
	m.File = blockio.FileID(f)
	m.Size, err = r.i64()
	return err
}

func (m *List) append(b []byte) []byte { return b }
func (m *List) decode(r *reader) error { return nil }

func (m *ListResp) append(b []byte) []byte {
	b = apU16(b, uint16(m.Status))
	b = apU32(b, uint32(len(m.Names)))
	for _, n := range m.Names {
		b = apStr(b, n)
	}
	return b
}

func (m *ListResp) decode(r *reader) error {
	s, err := r.u16()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	n, err := r.count(4) // each name is at least a u32 length prefix
	if err != nil {
		return err
	}
	m.Names = make([]string, 0, n)
	for i := 0; i < n; i++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		m.Names = append(m.Names, name)
	}
	return nil
}

func (m *StatusMsg) append(b []byte) []byte { return apU16(b, uint16(m.Status)) }

func (m *StatusMsg) decode(r *reader) error {
	s, err := r.u16()
	m.Status = Status(s)
	return err
}

func (m *Read) append(b []byte) []byte {
	b = apU32(b, m.Client)
	b = apU64(b, uint64(m.File))
	b = apI64(b, m.Offset)
	b = apI64(b, m.Length)
	return apBool(b, m.Track)
}

func (m *Read) decode(r *reader) error {
	var err error
	if m.Client, err = r.u32(); err != nil {
		return err
	}
	f, err := r.u64()
	if err != nil {
		return err
	}
	m.File = blockio.FileID(f)
	if m.Offset, err = r.i64(); err != nil {
		return err
	}
	if m.Length, err = r.i64(); err != nil {
		return err
	}
	m.Track, err = r.bool()
	return err
}

func (m *ReadResp) appendHead(b []byte) []byte {
	b = apU16(b, uint16(m.Status))
	return apU32(b, uint32(len(m.Data)))
}

func (m *ReadResp) tail() []byte { return m.Data }

func (m *ReadResp) append(b []byte) []byte { return append(m.appendHead(b), m.Data...) }

func (m *ReadResp) decode(r *reader) error {
	s, err := r.u16()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	m.Data, err = r.bytes()
	return err
}

func (m *Write) appendHead(b []byte) []byte {
	b = apU32(b, m.Client)
	b = apU64(b, uint64(m.File))
	b = apI64(b, m.Offset)
	return apU32(b, uint32(len(m.Data)))
}

func (m *Write) tail() []byte { return m.Data }

func (m *Write) append(b []byte) []byte { return append(m.appendHead(b), m.Data...) }

func (m *Write) decode(r *reader) error {
	var err error
	if m.Client, err = r.u32(); err != nil {
		return err
	}
	f, err := r.u64()
	if err != nil {
		return err
	}
	m.File = blockio.FileID(f)
	if m.Offset, err = r.i64(); err != nil {
		return err
	}
	m.Data, err = r.bytes()
	return err
}

func (m *WriteAck) append(b []byte) []byte { return apU16(b, uint16(m.Status)) }

func (m *WriteAck) decode(r *reader) error {
	s, err := r.u16()
	m.Status = Status(s)
	return err
}

func (m *SyncWrite) appendHead(b []byte) []byte {
	b = apU32(b, m.Client)
	b = apU64(b, uint64(m.File))
	b = apI64(b, m.Offset)
	return apU32(b, uint32(len(m.Data)))
}

func (m *SyncWrite) tail() []byte { return m.Data }

func (m *SyncWrite) append(b []byte) []byte { return append(m.appendHead(b), m.Data...) }

func (m *SyncWrite) decode(r *reader) error {
	var err error
	if m.Client, err = r.u32(); err != nil {
		return err
	}
	f, err := r.u64()
	if err != nil {
		return err
	}
	m.File = blockio.FileID(f)
	if m.Offset, err = r.i64(); err != nil {
		return err
	}
	m.Data, err = r.bytes()
	return err
}

func (m *SyncWriteAck) append(b []byte) []byte {
	b = apU16(b, uint16(m.Status))
	return apU32(b, m.Invalidated)
}

func (m *SyncWriteAck) decode(r *reader) error {
	s, err := r.u16()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	m.Invalidated, err = r.u32()
	return err
}

func (m *Flush) append(b []byte) []byte {
	b = apU32(b, m.Client)
	b = apU64(b, uint64(m.File))
	b = apU32(b, uint32(len(m.Blocks)))
	for _, blk := range m.Blocks {
		b = apI64(b, blk.Index)
		b = apU32(b, blk.Off)
		b = apBytes(b, blk.Data)
	}
	return b
}

func (m *Flush) decode(r *reader) error {
	var err error
	if m.Client, err = r.u32(); err != nil {
		return err
	}
	f, err := r.u64()
	if err != nil {
		return err
	}
	m.File = blockio.FileID(f)
	n, err := r.count(16) // index + off + data length prefix
	if err != nil {
		return err
	}
	m.Blocks = make([]FlushBlock, 0, n)
	for i := 0; i < n; i++ {
		var blk FlushBlock
		if blk.Index, err = r.i64(); err != nil {
			return err
		}
		if blk.Off, err = r.u32(); err != nil {
			return err
		}
		if blk.Data, err = r.bytes(); err != nil {
			return err
		}
		m.Blocks = append(m.Blocks, blk)
	}
	return nil
}

func (m *FlushAck) append(b []byte) []byte { return apU16(b, uint16(m.Status)) }

func (m *FlushAck) decode(r *reader) error {
	s, err := r.u16()
	m.Status = Status(s)
	return err
}

func (m *Invalidate) append(b []byte) []byte {
	b = apU64(b, uint64(m.File))
	b = apBool(b, m.Drain)
	b = apU32(b, uint32(len(m.Indices)))
	for _, idx := range m.Indices {
		b = apI64(b, idx)
	}
	return b
}

func (m *Invalidate) decode(r *reader) error {
	f, err := r.u64()
	if err != nil {
		return err
	}
	m.File = blockio.FileID(f)
	if m.Drain, err = r.bool(); err != nil {
		return err
	}
	n, err := r.count(8)
	if err != nil {
		return err
	}
	m.Indices = make([]int64, 0, n)
	for i := 0; i < n; i++ {
		idx, err := r.i64()
		if err != nil {
			return err
		}
		m.Indices = append(m.Indices, idx)
	}
	return nil
}

func (m *InvalidAck) append(b []byte) []byte { return apU16(b, uint16(m.Status)) }

func (m *InvalidAck) decode(r *reader) error {
	s, err := r.u16()
	m.Status = Status(s)
	return err
}
