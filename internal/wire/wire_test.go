package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"pvfscache/internal/blockio"
)

// roundTrip encodes m through a buffer and decodes it back.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, m); err != nil {
		t.Fatalf("write %v: %v", m.WireType(), err)
	}
	got, err := readMsg(&buf)
	if err != nil {
		t.Fatalf("read %v: %v", m.WireType(), err)
	}
	return got
}

// readMsg reads one frame and drops its tag.
func readMsg(r io.Reader) (Message, error) {
	_, m, err := ReadFrame(r)
	return m, err
}

// frameOf frames a raw payload under type t with tag 1.
func frameOf(t Type, payload []byte) []byte {
	frame := make([]byte, 4+frameHeadBytes, 4+frameHeadBytes+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(frameHeadBytes+len(payload))|tagBit)
	binary.BigEndian.PutUint16(frame[4:6], uint16(t))
	binary.BigEndian.PutUint64(frame[6:14], 1)
	return append(frame, payload...)
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Message{
		&Create{Name: "data/mesh.bin", Base: 2, PCount: 4, SSize: 65536},
		&CreateResp{Status: StatusOK, File: 42, Meta: FileMeta{Size: 1 << 20, Base: 1, PCount: 3, SSize: 8192}},
		&Open{Name: "x"},
		&OpenResp{Status: StatusNotFound},
		&Stat{File: 9},
		&StatResp{Status: StatusOK, Meta: FileMeta{Size: 7}},
		&Unlink{Name: "gone"},
		&SetSize{File: 3, Size: 1234567},
		&List{},
		&ListResp{Status: StatusOK, Names: []string{"a", "b", "c"}},
		&StatusMsg{Status: StatusExists},
		&Read{Client: 5, File: 11, Offset: 8192, Length: 4096, Track: true},
		&ReadResp{Status: StatusOK, Data: []byte("hello world")},
		&Write{Client: 1, File: 2, Offset: 0, Data: bytes.Repeat([]byte{0xAB}, 4096)},
		&WriteAck{Status: StatusOK},
		&SyncWrite{Client: 2, File: 8, Offset: 100, Data: []byte{1, 2, 3}},
		&SyncWriteAck{Status: StatusOK, Invalidated: 3},
		&Flush{Client: 4, File: 6, Blocks: []FlushBlock{
			{Index: 0, Data: []byte("b0")},
			{Index: 17, Data: []byte("b17")},
		}},
		&FlushAck{Status: StatusOK},
		&Invalidate{File: 6, Indices: []int64{1, 5, 9}},
		&InvalidAck{Status: StatusOK},
		&PeerGet{File: 2, Epoch: 3, Indexes: []int64{44, 45, 90}},
		&PeerGetResp{Status: StatusOK, Found: []bool{true, false, true}, Data: []byte("blkblk")},
		&PeerPut{Epoch: 3, Entries: []PeerPutEntry{{File: 2, Index: 44, Owner: 1}}, Data: []byte("blk")},
		&PeerPutAck{Status: StatusOK},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%v round trip:\n got %#v\nwant %#v", m.WireType(), got, m)
		}
	}
}

// normalize maps nil and empty slices to a comparable form.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *ReadResp:
		if len(v.Data) == 0 {
			v.Data = []byte{}
		}
	case *PeerGetResp:
		if len(v.Data) == 0 {
			v.Data = []byte{}
		}
		if len(v.Found) == 0 {
			v.Found = []bool{}
		}
	case *PeerGet:
		if len(v.Indexes) == 0 {
			v.Indexes = []int64{}
		}
	case *PeerPut:
		if len(v.Data) == 0 {
			v.Data = []byte{}
		}
		if len(v.Entries) == 0 {
			v.Entries = []PeerPutEntry{}
		}
	case *ListResp:
		if len(v.Names) == 0 {
			v.Names = []string{}
		}
	case *Invalidate:
		if len(v.Indices) == 0 {
			v.Indices = []int64{}
		}
	case *Flush:
		if len(v.Blocks) == 0 {
			v.Blocks = []FlushBlock{}
		}
	}
	return m
}

func TestEmptyCollections(t *testing.T) {
	got := roundTrip(t, &ListResp{Status: StatusOK}).(*ListResp)
	if len(got.Names) != 0 {
		t.Errorf("names = %v", got.Names)
	}
	inv := roundTrip(t, &Invalidate{File: 1}).(*Invalidate)
	if len(inv.Indices) != 0 {
		t.Errorf("indices = %v", inv.Indices)
	}
	fl := roundTrip(t, &Flush{Client: 1, File: 1}).(*Flush)
	if len(fl.Blocks) != 0 {
		t.Errorf("blocks = %v", fl.Blocks)
	}
}

func TestReadMessageTruncatedHeader(t *testing.T) {
	_, err := readMsg(bytes.NewReader([]byte{0, 0, 0}))
	if err == nil {
		t.Fatal("expected error on truncated header")
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, &Read{File: 1, Offset: 2, Length: 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, err := readMsg(bytes.NewReader(raw[:len(raw)-2]))
	if err == nil {
		t.Fatal("expected error on truncated payload")
	}
	if err != io.ErrUnexpectedEOF {
		t.Logf("got %v (acceptable, any error)", err)
	}
}

func TestReadMessageUnknownType(t *testing.T) {
	_, err := readMsg(bytes.NewReader(frameOf(0xFFFF, nil)))
	if err == nil {
		t.Fatal("expected unknown-type error")
	}
}

func TestReadMessageOversize(t *testing.T) {
	frame := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}
	_, err := readMsg(bytes.NewReader(frame))
	if err != ErrTooLarge {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestReadMessageTrailingBytes(t *testing.T) {
	// A Stat payload is exactly 8 bytes; declare 2 extra.
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, &Stat{File: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw = append(raw, 0xEE, 0xEE)
	// patch the length field: payload = 2 (type) ... wait, length counts type+payload
	raw[3] += 2
	_, err := readMsg(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestStatusErrMapping(t *testing.T) {
	if StatusOK.Err() != nil {
		t.Error("OK should map to nil")
	}
	for _, s := range []Status{StatusNotFound, StatusExists, StatusIOError, StatusBadRequest, StatusShortRead} {
		err := s.Err()
		if err == nil {
			t.Errorf("status %d mapped to nil", s)
		}
		if got := StatusFor(err); got != s {
			t.Errorf("StatusFor(%v) = %d, want %d", err, got, s)
		}
	}
	if StatusFor(nil) != StatusOK {
		t.Error("StatusFor(nil) != OK")
	}
}

func TestTypeString(t *testing.T) {
	if TRead.String() != "Read" {
		t.Errorf("TRead = %q", TRead.String())
	}
	if Type(0x9999).String() == "" {
		t.Error("unknown type should still render")
	}
}

// Property: any Read message survives a round trip.
func TestReadRoundTripProperty(t *testing.T) {
	f := func(client uint32, file uint64, off, length int64, track bool) bool {
		m := &Read{Client: client, File: blockio.FileID(file), Offset: off, Length: length, Track: track}
		var buf bytes.Buffer
		if err := WriteTagged(&buf, 1, m); err != nil {
			return false
		}
		got, err := readMsg(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary Write payloads survive a round trip.
func TestWriteRoundTripProperty(t *testing.T) {
	f := func(data []byte, off int64) bool {
		m := &Write{Client: 1, File: 2, Offset: off, Data: data}
		var buf bytes.Buffer
		if err := WriteTagged(&buf, 1, m); err != nil {
			return false
		}
		got, err := readMsg(&buf)
		if err != nil {
			return false
		}
		w := got.(*Write)
		return w.Offset == off && bytes.Equal(w.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizeMatchesMarshal(t *testing.T) {
	m := &Write{Client: 1, File: 2, Offset: 4096, Data: make([]byte, 4096)}
	if EncodedSize(m) != int64(len(Marshal(m))) {
		t.Error("EncodedSize disagrees with Marshal length")
	}
	// Frame overhead is 6 bytes header + fixed fields.
	if EncodedSize(m) <= 4096 {
		t.Error("encoded size should exceed payload length")
	}
}

func TestBackToBackMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteTagged(&buf, 1, &Stat{File: blockio.FileID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := readMsg(&buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got := m.(*Stat).File; got != blockio.FileID(i) {
			t.Errorf("msg %d: file = %d", i, got)
		}
	}
}

func TestTaggedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := &Read{Client: 7, File: 3, Offset: 4096, Length: 8192, Track: true}
	if err := WriteTagged(&buf, 0xdeadbeefcafe, want); err != nil {
		t.Fatal(err)
	}
	tag, m, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 0xdeadbeefcafe {
		t.Fatalf("tag = %#x", tag)
	}
	r, ok := m.(*Read)
	if !ok || *r != *want {
		t.Fatalf("got %+v want %+v", m, want)
	}
}

// TestReadFrameRejectsUntagged feeds both decoders a well-formed frame
// without the tag bit (the tagless Marshal shape): they must reject it
// before reading its payload.
func TestReadFrameRejectsUntagged(t *testing.T) {
	frame := Marshal(&Stat{File: 9})
	if _, _, err := ReadFrame(bytes.NewReader(frame)); err != ErrTooLarge {
		t.Fatalf("ReadFrame on a tagless frame: %v, want ErrTooLarge", err)
	}
	if _, _, payload, err := ReadFrameAliased(bytes.NewReader(frame)); err != ErrTooLarge || payload != nil {
		t.Fatalf("ReadFrameAliased on a tagless frame: %v, want ErrTooLarge", err)
	}
}

// TestHostileCountRejected feeds a tiny payload declaring an enormous
// element count: decode must fail instead of pre-allocating gigabytes.
func TestHostileCountRejected(t *testing.T) {
	for _, m := range []Message{&Invalidate{}, &Flush{}, &ListResp{}} {
		payload := m.append(nil)
		// The count is the last u32 in each empty encoding; overwrite it.
		binary.BigEndian.PutUint32(payload[len(payload)-4:], 0xffffffff)
		if _, err := readMsg(bytes.NewReader(frameOf(m.WireType(), payload))); err == nil {
			t.Errorf("%v: hostile count accepted", m.WireType())
		}
	}
}
