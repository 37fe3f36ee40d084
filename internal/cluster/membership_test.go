package cluster

import (
	"bytes"
	"testing"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/globalcache"
	"pvfscache/internal/pvfs"
)

// TestDrainIODZeroDirtyHolders is the graceful-retirement acceptance
// test: after a quiescent DrainIOD, no cache module owes the daemon a
// single dirty block, the daemon's coherence directory is empty (its
// entries were handed off with drain-marked invalidations), and the
// drained data survives a RejoinIOD byte for byte.
func TestDrainIODZeroDirtyHolders(t *testing.T) {
	c := startTest(t, Config{
		IODs:        2,
		ClientNodes: 2,
		Caching:     true,
		Module: cachemod.Config{
			FlushPeriod: time.Hour, // nothing drains unless the drain kicks it
		},
	})
	p0, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	f, err := p0.Create("drain.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128<<10)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A cold read pass on node 1 populates iod 0's coherence directory
	// with real holder entries.
	p1, err := c.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	f1, err := p1.Open("drain.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := f1.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if c.IODs[0].HolderBlocks() == 0 {
		t.Fatal("no holders recorded before the drain; the test is vacuous")
	}
	// Fresh dirty data the drain must flush out (the hour-long flush
	// period means only DrainIOD's directed kicks can drain it).
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if c.Module(0).Buffer().DirtyCountOwned(0) == 0 {
		t.Fatal("no dirty blocks owed to iod 0 before the drain; the test is vacuous")
	}

	before := c.Reg.Snapshot()
	if err := c.DrainIOD(0, 10*time.Second); err != nil {
		t.Fatalf("DrainIOD: %v", err)
	}
	for node := 0; node < 2; node++ {
		if n := c.Module(node).Buffer().DirtyCountOwned(0); n != 0 {
			t.Errorf("node %d still owes iod 0 %d dirty blocks after drain", node, n)
		}
	}
	if n := c.IODs[0].HolderBlocks(); n != 0 {
		t.Errorf("drained iod still records holders for %d blocks", n)
	}
	diff := c.Reg.Snapshot().Diff(before)
	if diff["membership.drain_handoffs"] == 0 {
		t.Error("drain handed off no directory entries")
	}

	// The daemon rejoins on its intact backend and serves the same bytes.
	if err := c.RejoinIOD(0); err != nil {
		t.Fatalf("RejoinIOD: %v", err)
	}
	p2, err := c.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	f2, err := p2.Open("drain.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatalf("read after rejoin: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data differs after drain + rejoin")
	}
}

// TestGlobalCacheJoinSpreadsLoad grows the global-cache ring live: a
// third node joins mid-flight, the mgr bumps the membership epoch, every
// node's ring converges on the new view, and subsequent pushes land on
// the newcomer — the load measurably spreads instead of staying on the
// boot-time members.
func TestGlobalCacheJoinSpreadsLoad(t *testing.T) {
	c := startTest(t, Config{
		IODs:        2,
		ClientNodes: 2,
		Caching:     true,
		Module: cachemod.Config{
			GlobalCache: &globalcache.Options{},
		},
	})
	ringsConverged := func(members int) bool {
		for node := 0; node < len(c.Modules); node++ {
			gc := c.Module(node).GlobalCacheNode()
			if gc == nil || len(gc.Ring().Members()) != members {
				return false
			}
		}
		return true
	}
	waitfor.Poll(5*time.Second, func() bool { return ringsConverged(2) })
	if !ringsConverged(2) {
		t.Fatal("boot views never converged on 2 members")
	}
	bumpsBefore := c.Reg.Snapshot().Counters["membership.epoch_bumps"]

	before := c.Reg.Snapshot()
	newNode, err := c.AddCacheNode()
	if err != nil {
		t.Fatalf("AddCacheNode: %v", err)
	}
	waitfor.Poll(5*time.Second, func() bool { return ringsConverged(3) })
	if !ringsConverged(3) {
		t.Fatal("rings never converged on 3 members after the join")
	}
	diff := c.Reg.Snapshot().Diff(before)
	if got := c.Reg.Snapshot().Counters["membership.epoch_bumps"]; got != bumpsBefore+1 {
		t.Errorf("epoch_bumps = %d after join, want %d", got, bumpsBefore+1)
	}
	if diff["membership.epoch_refreshes"] == 0 {
		t.Error("no node refreshed its view to learn about the join")
	}

	// Drive cold reads through node 0: every fetched block is pushed to
	// its ring home, and with three members a visible share of those
	// homes is the newcomer, whose cache fills without it reading a byte.
	p0, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	f, err := p0.Create("spread.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		t.Fatal(err)
	}
	c.Module(0).Buffer().InvalidateFile(f.ID())
	buf := make([]byte, len(data))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// The primary installs a push frame's blocks before it acks, and the
	// sender counts gcache.push_tx on the ack: wait for both.
	waitfor.Poll(5*time.Second, func() bool {
		return c.Module(newNode).Buffer().Stats().Resident > 0 &&
			c.Reg.Snapshot().Diff(before)["gcache.push_tx"] > 0
	})
	if n := c.Module(newNode).Buffer().Stats().Resident; n == 0 {
		t.Error("no pushed blocks landed on the joined node; load did not spread")
	}
	if d := c.Reg.Snapshot().Diff(before); d["gcache.push_tx"] == 0 {
		t.Error("no pushes delivered after the join")
	}
}
