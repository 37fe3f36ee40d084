package cachemod

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/globalcache"
	"pvfscache/internal/membership"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// The tests below pin the three speculative rules that set prefetched
// blocks apart from demand misses on the shared miss engine: a block the
// iod served nothing for is dropped, a stale install is dropped rather
// than re-read, and a prefetched block feeds no global-cache push.

// scanTo establishes an ascending scan over blocks [0, raMinStreak) of
// file; the last read launches a prefetch of the following window.
func scanTo(t *testing.T, tr *CachedTransport, file blockio.FileID) {
	t.Helper()
	for i := int64(0); i < raMinStreak; i++ {
		readSeq(t, tr, file, i*4096, 4096)
	}
}

// waitNoClaims waits until no block of file is claimed in the fetch
// table: every prefetch claim has been settled.
func waitNoClaims(t *testing.T, m *Module, file blockio.FileID) {
	t.Helper()
	waitfor.Until(t, 5*time.Second, func() bool {
		m.fetchMu.Lock()
		defer m.fetchMu.Unlock()
		for key := range m.fetches {
			if key.File == file {
				return false
			}
		}
		return true
	}, "prefetch claims on file %d settling", file)
}

// TestPrefetchPastStoredDataInstallsNothing: a readahead window that runs
// past the end of what the iod stores must not cache the missing blocks
// as zeros — a short answer may mean the range lies outside this iod's
// data, so those blocks are dropped and left to a demand read.
func TestPrefetchPastStoredDataInstallsNothing(t *testing.T) {
	r := newRig(t, nil)
	const file = 50
	const stored = raMinStreak + 2 // the window covers 2 stored blocks
	r.seed(0, file, 0, bytes.Repeat([]byte{0x6E}, stored*4096))

	tr := r.mod.NewTransport()
	hintAll(tr, file)
	scanTo(t, tr, file)
	waitCounter(t, r.reg, "module.prefetch_blocks", 2)
	waitNoClaims(t, r.mod, file)

	for idx := int64(raMinStreak); idx < raMinStreak+8; idx++ {
		cached := r.mod.Buffer().Contains(blockio.BlockKey{File: file, Index: idx}, 0, 1)
		if want := idx < stored; cached != want {
			t.Fatalf("block %d cached = %v, want %v (iod stores %d blocks)", idx, cached, want, stored)
		}
	}
	if got := r.reg.Counter("module.prefetch_blocks").Value(); got != 2 {
		t.Fatalf("prefetch_blocks = %d, want 2", got)
	}
}

// heldPort interposes on an iod port: every request is forwarded to
// target, except that a request hold matches is held until release is
// called. arrived receives one signal per held request.
func heldPort(t *testing.T, net transport.Network, target string, hold func(wire.Message) bool) (addr string, arrived <-chan struct{}, release func()) {
	t.Helper()
	rc := rpc.NewClient(rpc.ClientConfig{Network: net, Addr: target})
	held := make(chan struct{}, 16)
	gate := make(chan struct{})
	var once sync.Once
	srv := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		if hold(msg) {
			held <- struct{}{}
			<-gate
		}
		res := rc.Call(msg)
		if res.Err != nil {
			return nil
		}
		return res.Msg
	}), rpc.ServerConfig{})
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() { release(); l.Close(); srv.Close(); rc.Close() })
	return l.Addr(), held, release
}

// readsFrom matches a read (plain or vectored) starting at or past off.
func readsFrom(off int64) func(wire.Message) bool {
	return func(msg wire.Message) bool {
		switch r := msg.(type) {
		case *wire.Read:
			return r.Offset >= off
		case *wire.ReadBlocks:
			return len(r.Exts) > 0 && r.Exts[0].Offset >= off
		}
		return false
	}
}

// TestPrefetchStaleInstallDropped: a block written while its prefetch is
// in flight must not be installed from the prefetched image. The prefetch
// is speculative, so it drops the block (module.prefetch_stale_drops)
// instead of re-reading it, and a later read sees the written bytes.
func TestPrefetchStaleInstallDropped(t *testing.T) {
	const file = 51
	var arrived <-chan struct{}
	var release func()
	r := newRig(t, func(c *Config) {
		c.IODDataAddrs[0], arrived, release = heldPort(t, c.Network, c.IODDataAddrs[0], readsFrom(raMinStreak*4096))
	})
	r.seed(0, file, 0, bytes.Repeat([]byte{0x61}, 16*4096))

	tr := r.mod.NewTransport()
	hintAll(tr, file)
	scanTo(t, tr, file)
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the prefetch never reached the data port")
	}

	const victim = raMinStreak + 1
	written := bytes.Repeat([]byte{0xB7}, 4096)
	sendRecv(t, tr, 0, &wire.Write{File: file, Offset: victim * 4096, Data: written})
	release()
	waitCounter(t, r.reg, "module.prefetch_stale_drops", 1)
	waitNoClaims(t, r.mod, file)

	resp := sendRecv(t, tr, 0, &wire.Read{File: file, Offset: victim * 4096, Length: 4096}).(*wire.ReadResp)
	if !bytes.Equal(resp.Data, written) {
		t.Fatal("read after a stale prefetch returned the pre-write image")
	}
}

// TestPrefetchFeedsNoGlobalCachePush: with the global cache on, a demand
// miss pushes its block to the block's home node, while prefetched blocks
// are only marked for readahead accounting and never pushed.
func TestPrefetchFeedsNoGlobalCachePush(t *testing.T) {
	const file0 = 52
	var mu sync.Mutex
	pushed := make(map[blockio.BlockKey]bool)
	r := newRig(t, func(c *Config) {
		stubPeer(t, c.Network, "ra-stub-peer", func(e wire.PeerPutEntry) {
			mu.Lock()
			pushed[blockio.BlockKey{File: e.File, Index: e.Index}] = true
			mu.Unlock()
		})
		pinnedMgr(t, c.Network, "ra-mgr", []membership.Member{
			{ID: 0, Addr: "ra-stub-peer"},
			{ID: 1, Addr: "ra-self-node"},
		})
		c.GlobalCache = &globalcache.Options{SelfID: 1, SelfAddr: "ra-self-node", MgrAddr: "ra-mgr", Replicas: 1}
	})

	// A file whose scanned and prefetched blocks are all homed at the stub
	// peer, so every one of them would be pushed if it fed the cache.
	ring := r.mod.GlobalCacheNode().Ring()
	const span = raMinStreak + 8
	file := blockio.FileID(file0)
	for ; ; file++ {
		all := true
		for i := int64(0); i < span && all; i++ {
			all = ring.Primary(blockio.BlockKey{File: file, Index: i}) == 0
		}
		if all {
			break
		}
	}
	r.seed(0, file, 0, bytes.Repeat([]byte{0x3D}, 16*4096))

	tr := r.mod.NewTransport()
	hintAll(tr, file)
	scanTo(t, tr, file)
	waitCounter(t, r.reg, "module.prefetch_blocks", 8)
	pushedCount := func() (demand, prefetched int) {
		mu.Lock()
		defer mu.Unlock()
		for key := range pushed {
			if key.File != file {
				continue
			}
			if key.Index < raMinStreak {
				demand++
			} else {
				prefetched++
			}
		}
		return demand, prefetched
	}
	waitfor.Until(t, 5*time.Second, func() bool {
		d, _ := pushedCount()
		return d == raMinStreak
	}, "the %d demand misses being pushed", raMinStreak)
	waitfor.Stable(t, 50*time.Millisecond, func() bool {
		_, p := pushedCount()
		return p == 0
	}, "no prefetched block pushed")
}

// stubPeer serves a global-cache peer that holds nothing: every probe
// misses, and every pushed entry is reported to onPut and acked.
func stubPeer(t *testing.T, net transport.Network, addr string, onPut func(wire.PeerPutEntry)) {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		switch m := msg.(type) {
		case *wire.PeerGet:
			return &wire.PeerGetResp{Status: wire.StatusOK, Found: make([]bool, len(m.Indexes))}
		case *wire.PeerPut:
			for _, e := range m.Entries {
				onPut(e)
			}
			return &wire.PeerPutAck{Status: wire.StatusOK}
		default:
			return nil
		}
	}), rpc.ServerConfig{})
	go srv.Serve(l)
	t.Cleanup(func() { l.Close(); srv.Close() })
}

// pinnedMgr answers the membership view protocol with one fixed epoch-1
// view of members, whoever joins or leaves: a global cache whose ring
// the test chooses, stub peers included.
func pinnedMgr(t *testing.T, net transport.Network, addr string, members []membership.Member) {
	t.Helper()
	view := membership.ViewToResp(membership.View{Epoch: 1, Members: members})
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		switch msg.(type) {
		case *wire.ViewGet, *wire.JoinView, *wire.LeaveView:
			return view
		default:
			return nil
		}
	}), rpc.ServerConfig{})
	go srv.Serve(l)
	t.Cleanup(func() { l.Close(); srv.Close() })
}
