package cachemod

import (
	"bytes"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/wire"
)

// The tests below pin the fetch sharing that comes from every block
// entering through the miss engine's fetch table — read-modify-write
// fetches included — and the ordering of a sync write behind an in-flight
// flush of the same block.

// joinedOrArrived waits until the in-flight fetch of key has a joiner
// (two references: owner and joiner), or until a second read reached the
// held port — which means the second requester did not join.
func joinedOrArrived(t *testing.T, m *Module, key blockio.BlockKey, arrived <-chan struct{}) {
	t.Helper()
	waitfor.Until(t, 5*time.Second, func() bool {
		if len(arrived) > 0 {
			return true
		}
		m.fetchMu.Lock()
		defer m.fetchMu.Unlock()
		st := m.fetches[key]
		return st != nil && st.refs.Load() >= 2
	}, "the second request joining the fetch of %v", key)
}

// partialBlock makes block 0 of file resident with only [0, 100) valid
// (a buffered write of an absent block needs no fetch), so a later write
// of a span not touching that range must read-modify-write.
func partialBlock(t *testing.T, r *rig, file blockio.FileID) []byte {
	t.Helper()
	head := bytes.Repeat([]byte{0x01}, 100)
	sendRecv(t, r.mod.NewTransport(), 0, &wire.Write{File: file, Offset: 0, Data: head})
	return head
}

// rmwAsync runs one buffered write of a partial block span on its own
// transport and goroutine.
func rmwAsync(t *testing.T, r *rig, file blockio.FileID, off int64, fill byte, n int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := &wire.Write{File: file, Offset: off, Data: bytes.Repeat([]byte{fill}, n)}
		if err := sendRecvNoT(r.mod.NewTransport(), 0, req); err != nil {
			t.Errorf("write @%d: %v", off, err)
		}
	}()
	return done
}

func waitDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never completed", what)
	}
}

// TestConcurrentRMWsShareOneFetch: two writes merging into the same
// partially resident block both need its missing bytes. The first claims
// the block's fetch in the fetch table; the second joins it instead of
// reading the block from the iod again.
func TestConcurrentRMWsShareOneFetch(t *testing.T) {
	const file = 60
	var arrived <-chan struct{}
	var release func()
	r := newRig(t, func(c *Config) {
		c.IODDataAddrs[0], arrived, release = heldPort(t, c.Network, c.IODDataAddrs[0], readsFrom(0))
	})
	want := bytes.Repeat([]byte{0x11}, 4096)
	r.seed(0, file, 0, want)
	copy(want, partialBlock(t, r, file))
	key := blockio.BlockKey{File: file, Index: 0}
	before := r.reg.Snapshot()

	a := rmwAsync(t, r, file, 1000, 0xA1, 100)
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the first write's fetch never reached the data port")
	}
	b := rmwAsync(t, r, file, 2000, 0xB2, 100)
	joinedOrArrived(t, r.mod, key, arrived)
	release()
	waitDone(t, a, "first write")
	waitDone(t, b, "second write")

	if d := r.reg.Snapshot().Diff(before); d["iod.reads"] != 1 {
		t.Fatalf("iod served %d reads for two merges into one block, want 1", d["iod.reads"])
	}
	if err := r.mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	copy(want[1000:1100], bytes.Repeat([]byte{0xA1}, 100))
	copy(want[2000:2100], bytes.Repeat([]byte{0xB2}, 100))
	got := make([]byte, 4096)
	if n, _ := r.iods[0].Store().ReadAt(file, 0, got); n != 4096 || !bytes.Equal(got, want) {
		t.Fatal("iod does not hold both merged writes")
	}
}

// TestDemandReadJoinsRMWFetch: a read of a block whose read-modify-write
// fetch is in flight joins that fetch — one iod read serves both.
func TestDemandReadJoinsRMWFetch(t *testing.T) {
	const file = 61
	var arrived <-chan struct{}
	var release func()
	r := newRig(t, func(c *Config) {
		c.IODDataAddrs[0], arrived, release = heldPort(t, c.Network, c.IODDataAddrs[0], readsFrom(0))
	})
	base := bytes.Repeat([]byte{0x22}, 4096)
	r.seed(0, file, 0, base)
	copy(base, partialBlock(t, r, file))
	key := blockio.BlockKey{File: file, Index: 0}
	before := r.reg.Snapshot()

	w := rmwAsync(t, r, file, 1000, 0xC3, 100)
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the write's fetch never reached the data port")
	}
	var got []byte
	rd := make(chan struct{})
	go func() {
		defer close(rd)
		tr := r.mod.NewTransport()
		id, err := tr.Send(0, &wire.Read{File: file, Offset: 0, Length: 4096})
		if err == nil {
			var resp wire.Message
			if resp, err = tr.Recv(id); err == nil {
				got = resp.(*wire.ReadResp).Data
			}
		}
		if err != nil {
			t.Errorf("read: %v", err)
		}
	}()
	joinedOrArrived(t, r.mod, key, arrived)
	release()
	waitDone(t, w, "write")
	waitDone(t, rd, "read")

	d := r.reg.Snapshot().Diff(before)
	if d["module.fetch_joins"] != 1 || d["iod.reads"] != 1 {
		t.Fatalf("fetch_joins = %d, iod reads = %d; want the read to join the write's one fetch",
			d["module.fetch_joins"], d["iod.reads"])
	}
	// The read ran concurrently with the write: it sees the block either
	// before or after the merge, never anything else.
	merged := bytes.Clone(base)
	copy(merged[1000:1100], bytes.Repeat([]byte{0xC3}, 100))
	if !bytes.Equal(got, base) && !bytes.Equal(got, merged) {
		t.Fatal("read returned neither the pre-write nor the post-write block")
	}
}

// TestSyncWriteWaitsForInFlightFlush: a buffered write's flush frame is
// held on the flush port while the same block is sync-written. The sync
// write must not overtake the frame, or the iod would end up with the
// frame's older bytes and the cache would mark the block clean.
func TestSyncWriteWaitsForInFlightFlush(t *testing.T) {
	const file = 62
	var arrived <-chan struct{}
	var release func()
	r := newRig(t, func(c *Config) {
		c.IODFlushAddrs[0], arrived, release = heldPort(t, c.Network, c.IODFlushAddrs[0], func(msg wire.Message) bool {
			_, ok := msg.(*wire.Flush)
			return ok
		})
	})
	tr := r.mod.NewTransport()
	sendRecv(t, tr, 0, &wire.Write{File: file, Offset: 0, Data: bytes.Repeat([]byte{0x0A}, 4096)})
	r.mod.kickAllStreams()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the buffered write's flush never reached the flush port")
	}

	synced := bytes.Repeat([]byte{0x0B}, 4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		id, err := tr.Send(0, &wire.SyncWrite{File: file, Offset: 0, Data: synced})
		if err == nil {
			_, err = tr.Recv(id)
		}
		if err != nil {
			t.Errorf("sync write: %v", err)
		}
	}()
	// Give an overtaking sync write ample time to reach the iod before the
	// held frame is released; a correct one waits for the frame.
	select {
	case <-done:
	case <-time.After(100 * time.Millisecond):
	}
	release()
	waitDone(t, done, "sync write")
	if err := r.mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if n, _ := r.iods[0].Store().ReadAt(file, 0, got); n != 4096 || !bytes.Equal(got, synced) {
		t.Fatal("iod lost the sync write behind the in-flight flush")
	}
}

// TestDemandStaleInstallRefetched: a block written while a demand read's
// fetch of it is in flight must not be installed from the fetched image.
// The stale image is dropped, and the read re-fetches the block once its
// own fetch has landed; it returns the stored bytes with the write
// applied.
func TestDemandStaleInstallRefetched(t *testing.T) {
	const file = 63
	var arrived <-chan struct{}
	var release func()
	r := newRig(t, func(c *Config) {
		c.IODDataAddrs[0], arrived, release = heldPort(t, c.Network, c.IODDataAddrs[0], readsFrom(0))
	})
	want := bytes.Repeat([]byte{0x33}, 4096)
	r.seed(0, file, 0, want)
	before := r.reg.Snapshot()

	var got []byte
	rd := make(chan struct{})
	go func() {
		defer close(rd)
		tr := r.mod.NewTransport()
		id, err := tr.Send(0, &wire.Read{File: file, Offset: 0, Length: 4096})
		if err == nil {
			var resp wire.Message
			if resp, err = tr.Recv(id); err == nil {
				got = resp.(*wire.ReadResp).Data
			}
		}
		if err != nil {
			t.Errorf("read: %v", err)
		}
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the read's fetch never reached the data port")
	}
	copy(want, partialBlock(t, r, file))
	release()
	waitDone(t, rd, "read")

	d := r.reg.Snapshot().Diff(before)
	if d["module.fetch_stale_retries"] != 1 || d["module.sync_fetches"] != 1 || d["iod.reads"] != 2 {
		t.Fatalf("fetch_stale_retries = %d, sync_fetches = %d, iod reads = %d; want one stale install re-fetched",
			d["module.fetch_stale_retries"], d["module.sync_fetches"], d["iod.reads"])
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read did not return the stored bytes with the concurrent write applied")
	}
}
