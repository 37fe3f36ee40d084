package wire

// Native Go fuzz targets for every count-prefixed decoder in the package,
// seeded with valid encodings of each message type. Three properties are
// enforced on every input the fuzzer finds:
//
//   - no panic: hostile frames and payloads must fail with an error, never
//     crash the daemon that read them off a socket;
//   - no over-allocation: a count prefix can only pre-allocate what the
//     payload it arrived in could possibly hold (the reader.count guard),
//     so a 4-byte hostile count cannot pin gigabytes;
//   - canonical round trip: anything that decodes re-encodes to a frame
//     that decodes to the same message and re-encodes identically.
//
// CI runs each target for a ~30 s smoke (see .github/workflows/ci.yml);
// the committed corpora under testdata/fuzz keep the interesting inputs
// from past runs as regression seeds.

import (
	"bytes"
	"reflect"
	"testing"

	"pvfscache/internal/blockio"
)

// fuzzSampleMessages returns one populated value of every wire message,
// used to seed the corpus with valid encodings.
func fuzzSampleMessages() []Message {
	return []Message{
		&Create{Name: "f.dat", Base: 1, PCount: 4, SSize: 64 << 10},
		&CreateResp{Status: StatusOK, File: 7, Meta: FileMeta{Size: 1 << 20, Base: 1, PCount: 4, SSize: 64 << 10}},
		&Open{Name: "f.dat"},
		&OpenResp{Status: StatusNotFound, File: 9, Meta: FileMeta{Size: 3}},
		&Stat{File: 7},
		&StatResp{Status: StatusOK, Meta: FileMeta{Size: 42, PCount: 2, SSize: 4096}},
		&Unlink{Name: "gone"},
		&SetSize{File: 7, Size: 1 << 30},
		&List{},
		&ListResp{Status: StatusOK, Names: []string{"a", "bb", ""}},
		&StatusMsg{Status: StatusIOError},
		&Read{Client: 3, File: 7, Offset: 8192, Length: 4096, Track: true},
		&ReadResp{Status: StatusOK, Data: []byte{1, 2, 3}},
		&Write{Client: 3, File: 7, Offset: 0, Data: []byte("hello")},
		&WriteAck{Status: StatusOK},
		&SyncWrite{Client: 3, File: 7, Offset: 12, Data: []byte("sync")},
		&SyncWriteAck{Status: StatusOK, Invalidated: 2},
		&ReadBlocks{Client: 3, File: 7, Track: true, Exts: []ReadExtent{{0, 4096}, {16384, 8192}}},
		&ReadBlocksResp{Status: StatusOK, Lens: []uint32{2, 3}, Data: []byte{1, 2, 3, 4, 5}},
		&Flush{Client: 3, File: 7, Blocks: []FlushBlock{{Index: 1, Off: 100, Data: []byte("dirty")}}},
		&FlushAck{Status: StatusOK},
		&Invalidate{File: 7, Indices: []int64{0, 5, 9}},
		&InvalidAck{Status: StatusOK},
		&Register{Client: 3, Addr: "node0:9000"},
		&RegisterAck{Status: StatusOK},
		&PeerGet{File: 7, Epoch: 2, Indexes: []int64{5, 6, 40}},
		&PeerGetResp{Status: StatusOK, Found: []bool{true, false, false, true, false, false, false, false, true}, Data: []byte{9, 9, 8, 8, 7, 7}},
		&PeerPut{Epoch: 2, Entries: []PeerPutEntry{{File: 7, Index: 5, Owner: 1}, {File: 7, Index: 9, Owner: 3}}, Data: []byte{8, 8, 6, 6}},
		&PeerPutAck{Status: StatusOK},
	}
}

// encodeFrame frames m exactly as the transport writers do.
func encodeFrame(tag uint64, m Message) ([]byte, error) {
	var buf bytes.Buffer
	err := WriteTagged(&buf, tag, m)
	return buf.Bytes(), err
}

// FuzzDecode feeds arbitrary bytes through the full frame reader — length
// word, tag bit, type dispatch and every message decoder behind it. Any
// frame that decodes must round-trip canonically.
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSampleMessages() {
		// The tagless Marshal shape is a hostile seed: it must be rejected.
		f.Add(Marshal(m))
		if enc, err := encodeFrame(0xDEADBEEF, m); err == nil {
			f.Add(enc)
		}
	}
	// Hostile shapes: truncated header, oversize length, tagged bit with a
	// short body, unknown type, hostile element count.
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x0b})
	f.Add([]byte{0x80, 0x00, 0x00, 0x02, 0x01, 0x0b})
	f.Add([]byte{0x80, 0x00, 0x00, 0x0a, 0x7f, 0x7f, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0x80, 0x00, 0x00, 0x16, 0x04, 0x01, 0, 0, 0, 0, 0, 0, 0, 1, // Invalidate
		0, 0, 0, 0, 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF}) // count 2^32-1
	f.Add([]byte{0x80, 0x00, 0x00, 0x10, 0x05, 0x06, 0, 0, 0, 0, 0, 0, 0, 1, // PeerGetResp
		0, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // found-flag count 2^32-1, no bitmap
	f.Add([]byte{0x80, 0x00, 0x00, 0x17, 0x05, 0x06, 0, 0, 0, 0, 0, 0, 0, 1, // PeerGetResp
		0, 0, 0, 0, 0, 1, 0x03, 0, 0, 0, 2, 7, 7}) // padding bit set
	f.Fuzz(func(t *testing.T, data []byte) {
		tag, m, err := ReadFrame(bytes.NewReader(data))
		// The zero-copy decoder must accept and reject exactly the same
		// frames as the copying one, and decode to the same message.
		ztag, zm, payload, zerr := ReadFrameAliased(bytes.NewReader(data))
		if (err == nil) != (zerr == nil) {
			t.Fatalf("decode modes disagree: copying err %v, aliased err %v", err, zerr)
		}
		if err != nil {
			return // rejected cleanly; not panicking is the property
		}
		if ztag != tag || zm.WireType() != m.WireType() {
			t.Fatalf("aliased decode header diverged: %d/%v vs %d/%v",
				tag, m.WireType(), ztag, zm.WireType())
		}
		zenc, err := encodeFrame(ztag, zm)
		if err != nil {
			t.Fatalf("aliased-decoded %v does not re-encode: %v", zm.WireType(), err)
		}
		ReleasePayload(payload)
		enc1, err := encodeFrame(tag, m)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", m.WireType(), err)
		}
		if !bytes.Equal(enc1, zenc) {
			t.Fatalf("%v: aliased decode diverged from copying decode", m.WireType())
		}
		tag2, m2, err := ReadFrame(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", m.WireType(), err)
		}
		if tag2 != tag || m2.WireType() != m.WireType() {
			t.Fatalf("frame header changed across round trip: tag %d -> %d type %v -> %v",
				tag, tag2, m.WireType(), m2.WireType())
		}
		enc2, err := encodeFrame(tag2, m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%v encoding not canonical", m.WireType())
		}
	})
}

// FuzzVectorDecode drives the vectored-read decoders (the newest
// count-prefixed payloads) directly on raw payload bytes, checking the
// count guard's allocation bound and the Lens-tile-Data invariant that the
// cache module's fill path depends on.
func FuzzVectorDecode(f *testing.F) {
	rb := &ReadBlocks{Client: 1, File: 2, Track: true, Exts: []ReadExtent{{0, 4096}, {8192, 4096}}}
	f.Add(rb.append(nil))
	resp := &ReadBlocksResp{Status: StatusOK, Lens: []uint32{1, 4}, Data: []byte{1, 2, 3, 4, 5}}
	f.Add(resp.append(nil))
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}) // hostile counts
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req ReadBlocks
		if err := req.decode(&reader{buf: payload}); err == nil {
			if len(req.Exts)*16 > len(payload) {
				t.Fatalf("ReadBlocks decoded %d extents from %d bytes (over-allocation)",
					len(req.Exts), len(payload))
			}
			enc := req.append(nil)
			var again ReadBlocks
			if err := again.decode(&reader{buf: enc}); err != nil {
				t.Fatalf("ReadBlocks re-decode: %v", err)
			}
			if !reflect.DeepEqual(req, again) {
				t.Fatal("ReadBlocks round trip diverged")
			}
		}
		var rsp ReadBlocksResp
		if err := rsp.decode(&reader{buf: payload}); err == nil {
			if len(rsp.Lens)*4 > len(payload) {
				t.Fatalf("ReadBlocksResp decoded %d lens from %d bytes (over-allocation)",
					len(rsp.Lens), len(payload))
			}
			var sum int64
			for _, l := range rsp.Lens {
				sum += int64(l)
			}
			if sum != int64(len(rsp.Data)) {
				t.Fatalf("decode accepted Lens summing %d against %d data bytes", sum, len(rsp.Data))
			}
			enc := rsp.append(nil)
			var again ReadBlocksResp
			if err := again.decode(&reader{buf: enc}); err != nil {
				t.Fatalf("ReadBlocksResp re-decode: %v", err)
			}
			if !reflect.DeepEqual(rsp, again) {
				t.Fatal("ReadBlocksResp round trip diverged")
			}
		}
	})
}

// FuzzFrameRoundTrip builds messages from structured fuzz inputs, frames
// them, and requires the decoder to be an exact inverse — field-for-field
// via the canonical re-encoding. The trailing bool only varies Track; it
// keeps its place so the committed corpus still loads.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(7), int64(4096), int64(8192), []byte("payload"), uint64(1), true)
	f.Add(uint8(1), uint64(1), int64(0), int64(0), []byte{}, uint64(0), false)
	f.Add(uint8(2), uint64(9), int64(-1), int64(1<<40), []byte("x"), uint64(1<<63), true)
	f.Add(uint8(3), uint64(0), int64(100), int64(200), []byte("abcde"), uint64(3), false)
	f.Add(uint8(4), uint64(5), int64(5), int64(6), []byte("names"), uint64(0), true)
	f.Add(uint8(5), uint64(7), int64(3), int64(4), []byte("block"), uint64(2), true)
	f.Add(uint8(6), uint64(7), int64(3), int64(1<<20), []byte{}, uint64(2), false)
	f.Add(uint8(7), uint64(7), int64(0x2d), int64(9), []byte("blk"), uint64(0), true)
	f.Fuzz(func(t *testing.T, kind uint8, file uint64, a, b int64, blob []byte, tag uint64, track bool) {
		var m Message
		switch kind % 8 {
		case 0:
			m = &Read{Client: uint32(file), File: blockio.FileID(file), Offset: a, Length: b, Track: track}
		case 1:
			m = &Write{Client: 1, File: blockio.FileID(file), Offset: a, Data: blob}
		case 2:
			m = &ReadBlocks{Client: 2, File: blockio.FileID(file), Track: !track,
				Exts: []ReadExtent{{Offset: a, Length: b}, {Offset: b, Length: a}}}
		case 3:
			m = &Flush{Client: 3, File: blockio.FileID(file),
				Blocks: []FlushBlock{{Index: a, Off: uint32(b), Data: blob}}}
		case 4:
			m = &Invalidate{File: blockio.FileID(file), Indices: []int64{a, b, a ^ b}}
		case 5:
			// Two entries, so the packed data is the blob twice.
			m = &PeerPut{Epoch: tag, Entries: []PeerPutEntry{
				{File: blockio.FileID(file), Index: a, Owner: uint32(b)},
				{File: blockio.FileID(file), Index: b, Owner: uint32(a)},
			}, Data: append(append([]byte{}, blob...), blob...)}
		case 6:
			m = &PeerGet{File: blockio.FileID(file), Epoch: tag, Indexes: []int64{a, b, a ^ b}}
		case 7:
			// The found flags follow a's low bits; one blob per found flag.
			found := make([]bool, 1+int(uint64(b)%19))
			var data []byte
			for i := range found {
				found[i] = a>>(i%64)&1 != 0
				if found[i] {
					data = append(data, blob...)
				}
			}
			m = &PeerGetResp{Status: Status(tag), Found: found, Data: data}
		}
		enc, err := encodeFrame(tag, m)
		if err != nil {
			return // e.g. a blob pushing the frame past MaxMessageSize
		}
		tag2, got, err := ReadFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("valid %v frame rejected: %v", m.WireType(), err)
		}
		if tag2 != tag {
			t.Fatalf("tag lost: %d -> %d", tag, tag2)
		}
		if got.WireType() != m.WireType() {
			t.Fatalf("type changed: %v -> %v", m.WireType(), got.WireType())
		}
		// Compare via re-encoding: nil and empty slices frame identically,
		// so this is exact field equality without reflect's nil-vs-empty
		// false negatives.
		reEnc, err := encodeFrame(tag, got)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", got.WireType(), err)
		}
		if !bytes.Equal(enc, reEnc) {
			t.Fatalf("%v round trip changed the encoding", m.WireType())
		}
	})
}
