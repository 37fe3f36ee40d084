package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// peerSamples returns populated values of the three vectored peer shapes.
func peerSamples() []Message {
	blocks := bytes.Repeat([]byte{0x11, 0x22, 0x33, 0x44}, 3*1024) // three 4 KiB blocks
	return []Message{
		&PeerGet{File: 9, Epoch: 4, Indexes: []int64{0, 1, 7, 1 << 40}},
		&PeerGetResp{Status: StatusOK, Found: []bool{true, false, true, false, false, false, false, false, true}, Data: blocks},
		&PeerPut{Epoch: 4, Entries: []PeerPutEntry{{File: 9, Index: 0, Owner: 2}, {File: 9, Index: 5, Owner: 1}, {File: 3, Index: 2}}, Data: blocks},
	}
}

// TestPeerShapesRoundTrip checks the vectored peer messages survive the
// frame codec field for field, tag included.
func TestPeerShapesRoundTrip(t *testing.T) {
	for _, m := range peerSamples() {
		var buf bytes.Buffer
		if err := WriteTagged(&buf, 77, m); err != nil {
			t.Fatal(err)
		}
		tag, tm, err := ReadFrame(&buf)
		if err != nil || tag != 77 || !reflect.DeepEqual(tm, m) {
			t.Fatalf("%v tagged round trip: tag %d err %v", m.WireType(), tag, err)
		}
	}
	// No flags and no data is a legal answer (a peer that found nothing).
	empty := roundTrip(t, &PeerGetResp{Status: StatusNotFound}).(*PeerGetResp)
	if empty.Status != StatusNotFound || len(empty.Found) != 0 || len(empty.Data) != 0 {
		t.Fatalf("empty response decoded as %+v", empty)
	}
}

// TestPeerShapesAliasedDecode checks the copying and the aliased decoder
// agree on every peer shape, and that the aliased block data points into
// the retained frame.
func TestPeerShapesAliasedDecode(t *testing.T) {
	for _, m := range peerSamples() {
		var buf bytes.Buffer
		if err := WriteTagged(&buf, 1, m); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		_, copied, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		_, aliased, payload, err := ReadFrameAliased(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(copied, aliased) {
			t.Fatalf("%v: decode modes disagree", m.WireType())
		}
		switch v := aliased.(type) {
		case *PeerGet:
			if payload != nil {
				t.Fatal("PeerGet carries no bulk data but retained its payload")
			}
		case *PeerGetResp:
			if !aliasesInto(v.Data, payload) {
				t.Fatal("PeerGetResp data does not alias the frame")
			}
		case *PeerPut:
			if !aliasesInto(v.Data, payload) {
				t.Fatal("PeerPut data does not alias the frame")
			}
		}
		ReleasePayload(payload)
	}
}

// TestPeerShapesHostileCounts checks an index, flag or entry count larger
// than its payload could hold is rejected before anything is allocated.
func TestPeerShapesHostileCounts(t *testing.T) {
	cases := []struct {
		name    string
		typ     Type
		payload []byte
	}{
		// file, epoch, then an index count with no indexes behind it.
		{"PeerGet indexes", TPeerGet, binary.BigEndian.AppendUint32(make([]byte, 16), 0xffffffff)},
		{"PeerGet one short", TPeerGet, append(binary.BigEndian.AppendUint32(make([]byte, 16), 2), make([]byte, 15)...)},
		// status, then a flag count whose bitmap is missing.
		{"PeerGetResp flags", TPeerGetResp, binary.BigEndian.AppendUint32(make([]byte, 2), 0xffffffff)},
		{"PeerGetResp flags short", TPeerGetResp, binary.BigEndian.AppendUint32(make([]byte, 2), 17)},
		// epoch, then an entry count with no entries behind it.
		{"PeerPut entries", TPeerPut, binary.BigEndian.AppendUint32(make([]byte, 8), 0xffffffff)},
		{"PeerPut one short", TPeerPut, append(binary.BigEndian.AppendUint32(make([]byte, 8), 1), make([]byte, 19)...)},
	}
	for _, c := range cases {
		if _, err := readMsg(bytes.NewReader(frameOf(c.typ, c.payload))); err == nil {
			t.Errorf("%s: hostile count accepted", c.name)
		}
		if _, _, payload, err := ReadFrameAliased(bytes.NewReader(frameOf(c.typ, c.payload))); err == nil || payload != nil {
			t.Errorf("%s: aliased decode accepted or retained the frame", c.name)
		}
	}
}

// TestPeerShapesHostileData checks the packed-data guards: block data that
// cannot split evenly over its found flags or entries, set bitmap padding,
// and — against the requester's block size — a popcount × block size that
// does not equal the data length.
func TestPeerShapesHostileData(t *testing.T) {
	const bs = 4
	bad := []Message{
		&PeerGetResp{Status: StatusOK, Found: []bool{true, true}, Data: make([]byte, 7)},
		&PeerGetResp{Status: StatusOK, Found: []bool{false, false}, Data: make([]byte, bs)},
		&PeerPut{Entries: []PeerPutEntry{{Index: 1}, {Index: 2}}, Data: make([]byte, 9)},
		&PeerPut{Data: make([]byte, bs)},
	}
	for _, m := range bad {
		var buf bytes.Buffer
		if err := WriteTagged(&buf, 1, m); err != nil {
			t.Fatal(err)
		}
		if _, err := readMsg(&buf); err == nil {
			t.Errorf("%v with untiled data %+v accepted", m.WireType(), m)
		}
	}

	// A set bit past the last flag is not canonical.
	padded := (&PeerGetResp{Status: StatusOK, Found: []bool{true}, Data: make([]byte, bs)}).append(nil)
	padded[6] |= 0x80 // status u16, count u32, then the bitmap byte
	if _, err := readMsg(bytes.NewReader(frameOf(TPeerGetResp, padded))); err == nil {
		t.Error("bitmap padding bits accepted")
	}

	// Decodable, but not whole blocks of the requester's size: CheckBlocks
	// is the requester-side guard.
	resp := &PeerGetResp{Status: StatusOK, Found: []bool{true, false, true}, Data: make([]byte, 2*bs)}
	if !resp.CheckBlocks(3, bs) {
		t.Fatal("well-formed response rejected")
	}
	for _, c := range []struct {
		n, bs int
	}{{3, bs + 1}, {3, bs / 2}, {2, bs}, {4, bs}} {
		if resp.CheckBlocks(c.n, c.bs) {
			t.Errorf("CheckBlocks(%d, %d) accepted %d flags over %d bytes", c.n, c.bs, len(resp.Found), len(resp.Data))
		}
	}
}

// TestMaxFrameBlocksFits checks the vectored block bound: a peer push of
// MaxFrameBlocks whole blocks frames, and its data stays within the
// MaxMessageSize/2 budget a response's extents are held to.
func TestMaxFrameBlocksFits(t *testing.T) {
	for _, bs := range []int{64 << 10, 1 << 20} {
		n := MaxFrameBlocks(bs)
		if n*bs > MaxMessageSize/2 {
			t.Fatalf("bs %d: %d blocks exceed MaxMessageSize/2", bs, n)
		}
		m := &PeerPut{Entries: make([]PeerPutEntry, n), Data: make([]byte, n*bs)}
		if _, err := appendFrame(nil, 1, m); err != nil {
			t.Fatalf("bs %d: a PeerPut of %d blocks does not frame: %v", bs, n, err)
		}
	}
	if MaxFrameBlocks(MaxMessageSize) != 1 {
		t.Fatal("a block larger than the frame budget must still allow one")
	}
}
