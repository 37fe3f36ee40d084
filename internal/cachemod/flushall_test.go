package cachemod

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/globalcache"
	"pvfscache/internal/iod"
	"pvfscache/internal/membership"
	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// TestHostilePeerBlockSizeRejected: a global-cache peer that answers
// PeerGet with anything but one whole block per found flag is buggy or
// hostile; installing or slicing its bytes would panic the node (oversize
// data panics InstallFetchedAdmit, short data the span copy) or poison the
// cache. The read path must instead drop the whole answer, install
// nothing from it, count it per block, and fall through to the iod
// fetch.
func TestHostilePeerBlockSizeRejected(t *testing.T) {
	net := transport.NewMem()
	reg := metrics.NewRegistry()
	d := iod.New(0, 4096, net, reg)
	dl, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	go d.ServeData(dl)

	// Peer 0 is a stub that always claims every block, each one twice the
	// block size: a frame that decodes, but not as whole 4 KiB blocks.
	pl, err := net.Listen("gc-hostile-peer")
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	stub := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		if g, ok := msg.(*wire.PeerGet); ok {
			found := make([]bool, len(g.Indexes))
			for i := range found {
				found[i] = true
			}
			return &wire.PeerGetResp{Status: wire.StatusOK, Found: found, Data: make([]byte, len(found)*8192)}
		}
		return nil
	}), rpc.ServerConfig{})
	go stub.Serve(pl)
	defer stub.Close()

	pinnedMgr(t, net, "gc-mgr", []membership.Member{
		{ID: 0, Addr: "gc-hostile-peer"},
		{ID: 1, Addr: "gc-self-node"},
	})
	mod, err := New(Config{
		Network:          net,
		ClientID:         1,
		IODDataAddrs:     []string{dl.Addr()},
		Buffer:           buffer.Config{BlockSize: 4096, Capacity: 16},
		DisableCoherence: true,
		GlobalCache: &globalcache.Options{
			SelfID:   1,
			SelfAddr: "gc-self-node",
			MgrAddr:  "gc-mgr",
			Replicas: 1, // primary only: the walk must hit the hostile peer
		},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mod.Close()

	// A block whose ring primary is the hostile peer.
	ring := mod.GlobalCacheNode().Ring()
	var key blockio.BlockKey
	for f := blockio.FileID(1); ; f++ {
		key = blockio.BlockKey{File: f, Index: 0}
		if ring.Primary(key) == 0 {
			break
		}
	}
	payload := bytes.Repeat([]byte{0x42}, 4096)
	d.Store().WriteAt(key.File, 0, payload)

	tr := mod.NewTransport()
	resp := sendRecv(t, tr, 0, &wire.Read{File: key.File, Offset: 0, Length: 4096}).(*wire.ReadResp)
	if !bytes.Equal(resp.Data, payload) {
		t.Fatal("read did not fall through to the iod after the bad peer response")
	}
	snap := reg.Snapshot()
	if snap.Counters["module.gcache_bad_resp"] != 1 {
		t.Fatalf("module.gcache_bad_resp = %d, want 1 (one block)", snap.Counters["module.gcache_bad_resp"])
	}
	// The block the cache now holds is the iod's, not the stub's zeros.
	cached := make([]byte, 4096)
	if !mod.Buffer().ReadSpan(key, 0, cached) || !bytes.Equal(cached, payload) {
		t.Fatal("the malformed answer installed bytes")
	}
	if snap.Counters["module.gcache_hits"] != 0 {
		t.Fatal("oversize peer response counted as a hit")
	}
}

// TestGlobalCacheProbeOncePerRequest: a read's owned misses reach the
// global cache as ONE vectored probe of their primary — not one round trip
// per block — before the iod fetch, and only the blocks the peer did not
// serve are fetched from the iod. Served blocks install like fetched ones:
// a re-read is a pure cache hit that probes nothing.
func TestGlobalCacheProbeOncePerRequest(t *testing.T) {
	const bs, nblocks = 4096, 16
	net := transport.NewMem()
	reg := metrics.NewRegistry()
	d := iod.New(0, bs, net, reg)
	dl, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	go d.ServeData(dl)

	// The stub peer holds every block it is asked for, stamped with its
	// index, and records each probe.
	var mu sync.Mutex
	var probes [][]int64
	pl, err := net.Listen("gc-stub-peer")
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	stub := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		g, ok := msg.(*wire.PeerGet)
		if !ok {
			return &wire.PeerPutAck{Status: wire.StatusOK}
		}
		mu.Lock()
		probes = append(probes, append([]int64(nil), g.Indexes...))
		mu.Unlock()
		resp := &wire.PeerGetResp{Status: wire.StatusOK, Found: make([]bool, len(g.Indexes))}
		for i, idx := range g.Indexes {
			resp.Found[i] = true
			resp.Data = append(resp.Data, bytes.Repeat([]byte{byte(0x80 + idx)}, bs)...)
		}
		return resp
	}), rpc.ServerConfig{})
	go stub.Serve(pl)
	defer stub.Close()

	pinnedMgr(t, net, "gc-mgr", []membership.Member{
		{ID: 0, Addr: "gc-stub-peer"},
		{ID: 1, Addr: "gc-self-node"},
	})
	mod, err := New(Config{
		Network:          net,
		ClientID:         1,
		IODDataAddrs:     []string{dl.Addr()},
		Buffer:           buffer.Config{BlockSize: bs, Capacity: 64},
		DisableCoherence: true,
		GlobalCache: &globalcache.Options{
			SelfID:   1,
			SelfAddr: "gc-self-node",
			MgrAddr:  "gc-mgr",
			Replicas: 1,
		},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mod.Close()

	// A file whose blocks are homed at both members.
	ring := mod.GlobalCacheNode().Ring()
	var file blockio.FileID
	var atPeer map[int64]bool
	for f := blockio.FileID(1); file == 0; f++ {
		atPeer = make(map[int64]bool)
		for i := int64(0); i < nblocks; i++ {
			if ring.Primary(blockio.BlockKey{File: f, Index: i}) == 0 {
				atPeer[i] = true
			}
		}
		if len(atPeer) > 0 && len(atPeer) < nblocks {
			file = f
		}
	}
	iodBytes := bytes.Repeat([]byte{0x42}, nblocks*bs)
	d.Store().WriteAt(file, 0, iodBytes)

	tr := mod.NewTransport()
	for round := 0; round < 2; round++ {
		resp := sendRecv(t, tr, 0, &wire.Read{File: file, Offset: 0, Length: nblocks * bs}).(*wire.ReadResp)
		for i := int64(0); i < nblocks; i++ {
			want := byte(0x42)
			if atPeer[i] {
				want = byte(0x80 + i)
			}
			if got := resp.Data[i*bs]; got != want {
				t.Fatalf("round %d block %d: byte %#x, want %#x", round, i, got, want)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(probes) != 1 {
		t.Fatalf("%d probe frames for one read and one re-read, want 1", len(probes))
	}
	if len(probes[0]) != len(atPeer) {
		t.Fatalf("probe asked for %d blocks, want the %d homed at the peer", len(probes[0]), len(atPeer))
	}
	for _, idx := range probes[0] {
		if !atPeer[idx] {
			t.Fatalf("probe asked for block %d, homed at this node", idx)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["module.gcache_hits"]; got != int64(len(atPeer)) {
		t.Fatalf("module.gcache_hits = %d, want %d", got, len(atPeer))
	}
}

// TestFlushAllWaitsForInFlightBlocks is the regression test for the race
// FlushAll's old fixed retry budget papered over: a block taken by a
// concurrent flusher round is invisible to TakeDirty (flushing=true), so
// FlushAll can only wait for that round to land. The old implementation
// retried 1000 times with a 1 ms sleep — a ~1 s budget that a slow flush
// port overruns, making FlushAll (and therefore Close) report falsely that
// dirty blocks were left behind while the flush was still in flight. The
// deadline-based wait must ride out a flush round far slower than that
// budget and return success once the data is durable.
func TestFlushAllWaitsForInFlightBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second in-flight flush delay")
	}
	const delay = 2 * time.Second // well past the old ~1 s retry budget

	net := transport.NewMem()
	reg := metrics.NewRegistry()
	d := iod.New(0, 4096, net, reg)
	dl, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	go d.ServeData(dl)

	// The flush port is a stub that stalls every Flush for delay before
	// applying it to the iod's store — a slow disk behind the flush peer.
	started := make(chan struct{})
	fl, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	stub := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		fm, ok := msg.(*wire.Flush)
		if !ok {
			return nil
		}
		close(started)
		time.Sleep(delay)
		for _, blk := range fm.Blocks {
			d.Store().WriteAt(fm.File, blk.Index*4096+int64(blk.Off), blk.Data)
		}
		return &wire.FlushAck{Status: wire.StatusOK}
	}), rpc.ServerConfig{})
	go stub.Serve(fl)
	defer stub.Close()

	mod, err := New(Config{
		Network:       net,
		ClientID:      1,
		IODDataAddrs:  []string{dl.Addr()},
		IODFlushAddrs: []string{fl.Addr()},
		Buffer:        buffer.Config{BlockSize: 4096, Capacity: 16},
		FlushPeriod:   time.Hour, // only the kicked round runs
		Registry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mod.Close()

	tr := mod.NewTransport()
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	sendRecv(t, tr, 0, &wire.Write{File: 30, Offset: 0, Data: payload})

	// Put the block in flight on a background flusher round, then make
	// sure the round has really taken it before FlushAll starts.
	mod.kickFlusher()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("background flusher never picked up the dirty block")
	}

	t0 := time.Now()
	if err := mod.FlushAll(); err != nil {
		t.Fatalf("FlushAll failed while a flush was in flight: %v", err)
	}
	elapsed := time.Since(t0)
	if elapsed < delay/2 {
		t.Fatalf("FlushAll returned after %v without waiting for the in-flight round", elapsed)
	}
	if n := mod.Buffer().DirtyCount(); n != 0 {
		t.Fatalf("%d dirty blocks after FlushAll", n)
	}
	got := make([]byte, 4096)
	if n, _ := d.Store().ReadAt(30, 0, got); n != 4096 || !bytes.Equal(got, payload) {
		t.Fatalf("flushed data not durable (n=%d)", n)
	}
}
