package globalcache

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/membership"
	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

const testBlock = 64

// rig is a cluster of global-cache nodes on one in-memory network whose
// membership a pinnedMgr fixes.
type rig struct {
	net   transport.Network
	bufs  []*buffer.Manager
	nodes []*Node
	regs  []*metrics.Registry
}

func newRig(t *testing.T, count, replicas int, opts Options) *rig {
	t.Helper()
	return newRigOn(t, transport.NewMem(), count, replicas, testBlock, 32, opts)
}

// newRigOn builds a rig of count nodes with bs-byte blocks and capacity
// cache blocks each on network net.
func newRigOn(t *testing.T, net transport.Network, count, replicas, bs, capacity int, opts Options) *rig {
	t.Helper()
	r := &rig{net: net}
	members := make([]membership.Member, count)
	for i := range members {
		members[i] = membership.Member{ID: uint32(i), Addr: addrOf(i)}
	}
	pinnedMgr(t, net, "rig-mgr", members)
	for i := 0; i < count; i++ {
		// One shard: capacity is then exact, not split across stripes.
		buf := buffer.New(buffer.Config{BlockSize: bs, Capacity: capacity, Shards: 1})
		l, err := r.net.Listen(addrOf(i))
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.SelfID = uint32(i)
		o.MgrAddr = "rig-mgr"
		o.Replicas = replicas
		if o.FetchTimeout == 0 {
			o.FetchTimeout = 100 * time.Millisecond
		}
		reg := metrics.NewRegistry()
		n, err := Start(o, buf, l, r.net, reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		r.bufs = append(r.bufs, buf)
		r.nodes = append(r.nodes, n)
		r.regs = append(r.regs, reg)
	}
	return r
}

func addrOf(i int) string {
	return string(rune('a'+i)) + "-gc"
}

// keyWithReplicas searches for a block key whose replica set (as node
// `from` computes it) starts with the given member indices.
func keyWithReplicas(t *testing.T, n *Node, want ...int) blockio.BlockKey {
	t.Helper()
	var buf [8]int
	for i := int64(0); i < 1<<20; i++ {
		key := blockio.BlockKey{File: 1, Index: i}
		set := n.Ring().ReplicaSet(key, buf[:0])
		if len(set) < len(want) {
			continue
		}
		match := true
		for j, w := range want {
			if set[j] != w {
				match = false
				break
			}
		}
		if match {
			return key
		}
	}
	t.Fatal("no key found with the requested replica set")
	return blockio.BlockKey{}
}

// getAll runs one vectored Get and returns each key's served block (nil
// for a miss) and the malformed-answer count.
func getAll(n *Node, keys ...blockio.BlockKey) ([][]byte, int) {
	got := make([][]byte, len(keys))
	bad := n.Get(keys, func(i int, block []byte) {
		if got[i] != nil {
			panic("key served twice")
		}
		got[i] = append([]byte(nil), block...)
	})
	return got, bad
}

func TestGetServedFromPrimary(t *testing.T) {
	r := newRig(t, 2, 1, Options{})
	key := keyWithReplicas(t, r.nodes[0], 1)
	data := bytes.Repeat([]byte{0xAB}, testBlock)
	r.bufs[1].InsertClean(key, 0, data)

	got, bad := getAll(r.nodes[0], key)
	if got[0] == nil {
		t.Fatal("peer get missed")
	}
	if bad != 0 || !bytes.Equal(got[0], data) {
		t.Fatal("peer get wrong data")
	}
}

func TestGetMissesWhenPeerCold(t *testing.T) {
	r := newRig(t, 2, 1, Options{})
	if got, _ := getAll(r.nodes[0], keyWithReplicas(t, r.nodes[0], 1)); got[0] != nil {
		t.Fatal("cold peer returned a hit")
	}
	if v := r.regs[0].Counter("gcache.get_misses").Value(); v != 1 {
		t.Fatalf("gcache.get_misses = %d, want 1", v)
	}
}

func TestGetSkipsSelfHomedBlocks(t *testing.T) {
	fc := newFrameCounter(transport.NewMem())
	r := newRigOn(t, fc, 2, 1, testBlock, 32, Options{})
	key := keyWithReplicas(t, r.nodes[0], 0)
	r.bufs[0].InsertClean(key, 0, make([]byte, testBlock))
	// Node 0 is the primary: Get must not loop back to itself.
	if got, _ := getAll(r.nodes[0], key); got[0] != nil {
		t.Fatal("self-homed get should miss")
	}
	if n := fc.frames(addrOf(0), wire.TPeerGet) + fc.frames(addrOf(1), wire.TPeerGet); n != 0 {
		t.Fatalf("a self-homed key sent %d probes", n)
	}
}

// keysWithPrimary returns count distinct keys whose primary is member
// index want in ring.
func keysWithPrimary(t *testing.T, ring *membership.Ring, want, count int) []blockio.BlockKey {
	t.Helper()
	var keys []blockio.BlockKey
	for i := int64(0); i < 1<<20 && len(keys) < count; i++ {
		key := blockio.BlockKey{File: 1, Index: i}
		if ring.Primary(key) == want {
			keys = append(keys, key)
		}
	}
	if len(keys) < count {
		t.Fatal("not enough keys with the requested primary")
	}
	return keys
}

// TestVectoredGetOneFramePerPrimary: one Get over keys homed at two
// primaries sends exactly one PeerGet to each, and hits and misses are
// counted per block.
func TestVectoredGetOneFramePerPrimary(t *testing.T) {
	fc := newFrameCounter(transport.NewMem())
	r := newRigOn(t, fc, 3, 1, testBlock, 32, Options{})
	at1 := keysWithPrimary(t, r.nodes[0].Ring(), 1, 5)
	at2 := keysWithPrimary(t, r.nodes[0].Ring(), 2, 7)
	keys := append(append([]blockio.BlockKey(nil), at1...), at2...)
	want := make([][]byte, len(keys))
	for i, key := range keys {
		if i%3 == 0 {
			continue // left cold: a miss
		}
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, testBlock)
		home := 1
		if i >= len(at1) {
			home = 2
		}
		r.bufs[home].InsertClean(key, 0, want[i])
	}

	got, bad := getAll(r.nodes[0], keys...)
	if bad != 0 {
		t.Fatalf("%d malformed answers from healthy peers", bad)
	}
	hits := 0
	for i := range keys {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("key %d: got %v, want %v", i, got[i] != nil, want[i] != nil)
		}
		if want[i] != nil {
			hits++
		}
	}
	for _, home := range []int{1, 2} {
		if n := fc.frames(addrOf(home), wire.TPeerGet); n != 1 {
			t.Fatalf("primary %d got %d probe frames, want 1", home, n)
		}
	}
	if v := r.regs[0].Counter("gcache.get_hits").Value(); v != int64(hits) {
		t.Fatalf("gcache.get_hits = %d, want %d", v, hits)
	}
	if v := r.regs[0].Counter("gcache.get_misses").Value(); v != int64(len(keys)-hits) {
		t.Fatalf("gcache.get_misses = %d, want %d", v, len(keys)-hits)
	}
}

func TestPushLandsAtPrimary(t *testing.T) {
	r := newRig(t, 2, 1, Options{})
	key := keyWithReplicas(t, r.nodes[0], 1)
	data := bytes.Repeat([]byte{0x5A}, testBlock)
	r.nodes[0].Push(key, 3, data)

	deadline := time.Now().Add(2 * time.Second)
	for !r.bufs[1].Contains(key, 0, testBlock) {
		if time.Now().After(deadline) {
			t.Fatal("push never arrived at the primary")
		}
		time.Sleep(time.Millisecond)
	}
	dst := make([]byte, testBlock)
	r.bufs[1].ReadSpan(key, 0, dst)
	if !bytes.Equal(dst, data) {
		t.Fatal("pushed data corrupt")
	}
}

func TestPushToSelfIgnored(t *testing.T) {
	r := newRig(t, 2, 1, Options{})
	key := keyWithReplicas(t, r.nodes[0], 0)
	r.nodes[0].Push(key, 0, make([]byte, testBlock))
	time.Sleep(20 * time.Millisecond)
	if r.bufs[0].Contains(key, 0, testBlock) {
		t.Fatal("self push inserted a block")
	}
}

// TestFailoverToReplica kills the primary's service and checks a read
// fails over to the secondary replica that holds the block, counting the
// hop in membership.failovers.
func TestFailoverToReplica(t *testing.T) {
	r := newRig(t, 3, 2, Options{FetchTimeout: 50 * time.Millisecond})
	key := keyWithReplicas(t, r.nodes[0], 1, 2)
	data := bytes.Repeat([]byte{0xC3}, testBlock)
	r.bufs[2].InsertClean(key, 0, data)

	r.nodes[1].KillService()

	got, _ := getAll(r.nodes[0], key)
	if got[0] == nil {
		t.Fatal("get did not fail over to the replica")
	}
	if !bytes.Equal(got[0], data) {
		t.Fatal("failover served wrong data")
	}
	if r.regs[0].Counter("membership.failovers").Value() == 0 {
		t.Fatal("failover not counted")
	}
}

// TestDeadPrimaryFailsGroupOver: when the primary of a whole group of
// keys is dead, the group fails over to the next replica as one probe
// (the keys share their replica set), and every key's hop is counted.
func TestDeadPrimaryFailsGroupOver(t *testing.T) {
	fc := newFrameCounter(transport.NewMem())
	r := newRigOn(t, fc, 3, 2, testBlock, 32, Options{FetchTimeout: 50 * time.Millisecond})
	var keys []blockio.BlockKey
	var set [8]int
	for i := int64(0); len(keys) < 6; i++ {
		key := blockio.BlockKey{File: 1, Index: i}
		if rs := r.nodes[0].Ring().ReplicaSet(key, set[:0]); rs[0] == 1 && rs[1] == 2 {
			keys = append(keys, key)
		}
	}
	for i, key := range keys {
		r.bufs[2].InsertClean(key, 0, bytes.Repeat([]byte{byte(i + 1)}, testBlock))
	}
	r.nodes[1].KillService()

	got, _ := getAll(r.nodes[0], keys...)
	for i := range keys {
		if !bytes.Equal(got[i], bytes.Repeat([]byte{byte(i + 1)}, testBlock)) {
			t.Fatalf("key %d not served by the secondary", i)
		}
	}
	if n := fc.frames(addrOf(2), wire.TPeerGet); n != 1 {
		t.Fatalf("secondary got %d probe frames for one failed-over group, want 1", n)
	}
	if v := r.regs[0].Counter("membership.failovers").Value(); v != int64(len(keys)) {
		t.Fatalf("membership.failovers = %d, want one per key (%d)", v, len(keys))
	}
}

// TestDeadPeerDegradesInBoundedTime is the regression test for the
// unbounded-hang bug: a blackholed peer (accepts, never answers) must
// cost at most the fetch timeout per replica, not an indefinite hang.
func TestDeadPeerDegradesInBoundedTime(t *testing.T) {
	net := transport.NewMem()
	// A blackhole listener stands in for member 1: accepts and holds.
	bl, err := net.Listen("blackhole")
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	var held []transport.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := bl.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()

	buf := buffer.New(buffer.Config{BlockSize: testBlock, Capacity: 8})
	l, err := net.Listen("self-gc")
	if err != nil {
		t.Fatal(err)
	}
	pinnedMgr(t, net, "mgr", []membership.Member{
		{ID: 0, Addr: "self-gc"},
		{ID: 1, Addr: "blackhole"},
	})
	n, err := Start(Options{
		SelfID:       0,
		MgrAddr:      "mgr",
		Replicas:     1,
		FetchTimeout: 50 * time.Millisecond,
	}, buf, l, net, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	keys := keysWithPrimary(t, n.Ring(), 1, 4)
	start := time.Now()
	if got, _ := getAll(n, keys...); got[0] != nil || got[3] != nil {
		t.Fatal("blackholed peer returned a hit")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("get against a hung peer took %v, want ~the 50ms fetch timeout", d)
	}
}

func TestStartRejectsBadOptions(t *testing.T) {
	net := transport.NewMem()
	buf := buffer.New(buffer.Config{BlockSize: testBlock, Capacity: 8})
	l, err := net.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := Start(Options{SelfAddr: "x"}, buf, l, net, nil); err == nil {
		t.Fatal("options without MgrAddr accepted")
	}
}

// TestOversizedPeerPutRejected checks hostile PeerPuts — block data
// larger or smaller than one whole block per entry — get a bad-request
// ack instead of panicking the node or installing fabricated bytes.
func TestOversizedPeerPutRejected(t *testing.T) {
	r := newRig(t, 2, 1, Options{})
	conn, err := r.net.Dial(addrOf(1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	entries := []wire.PeerPutEntry{{File: 1, Index: 0}, {File: 1, Index: 1}}
	for _, size := range []int{2*testBlock + 2, 4 * testBlock, testBlock} {
		if err := wire.WriteTagged(conn, 1, &wire.PeerPut{Entries: entries, Data: make([]byte, size)}); err != nil {
			t.Fatal(err)
		}
		_, resp, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%d bytes for 2 entries: %v", size, err)
		}
		ack, ok := resp.(*wire.PeerPutAck)
		if !ok || ack.Status != wire.StatusBadRequest {
			t.Fatalf("%d bytes for 2 entries got %+v", size, resp)
		}
	}
	for _, e := range entries {
		if r.bufs[1].Contains(blockio.BlockKey{File: e.File, Index: e.Index}, 0, 1) {
			t.Fatal("a rejected put installed a block")
		}
	}
}

// TestOversizedPeerGetRejected checks a probe asking for more blocks than
// one answer frame could carry gets a bad-request answer, not an
// unframeable response.
func TestOversizedPeerGetRejected(t *testing.T) {
	r := newRig(t, 2, 1, Options{})
	conn, err := r.net.Dial(addrOf(1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	idx := make([]int64, wire.MaxFrameBlocks(testBlock)+1)
	if err := wire.WriteTagged(conn, 1, &wire.PeerGet{File: 1, Indexes: idx}); err != nil {
		t.Fatal(err)
	}
	_, resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if gr, ok := resp.(*wire.PeerGetResp); !ok || gr.Status != wire.StatusBadRequest {
		t.Fatalf("oversized probe got %+v", resp)
	}
}

// fakeMgr answers the membership view protocol from a Tracker — the mgr
// side of dynamic mode without booting a cluster.
func fakeMgr(t *testing.T, net transport.Network, addr string) *membership.Tracker {
	t.Helper()
	tr := membership.NewTracker(nil)
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := rpc.NewServer(rpc.HandlerFunc(func(m wire.Message) wire.Message {
		switch m := m.(type) {
		case *wire.ViewGet:
			return membership.ViewToResp(tr.View())
		case *wire.JoinView:
			return membership.ViewToResp(tr.Join(m.ID, m.Addr))
		case *wire.LeaveView:
			return membership.ViewToResp(tr.Leave(m.ID))
		default:
			return nil
		}
	}), rpc.ServerConfig{})
	go s.Serve(l)
	t.Cleanup(func() { l.Close(); s.Close() })
	return tr
}

// pinnedMgr answers the membership view protocol with one fixed epoch-1
// view of members, whoever joins or leaves: a cluster whose ring the test
// chooses, stub and dead peers included.
func pinnedMgr(t *testing.T, net transport.Network, addr string, members []membership.Member) {
	t.Helper()
	view := membership.ViewToResp(membership.View{Epoch: 1, Members: members})
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := rpc.NewServer(rpc.HandlerFunc(func(m wire.Message) wire.Message {
		switch m.(type) {
		case *wire.ViewGet, *wire.JoinView, *wire.LeaveView:
			return view
		default:
			return nil
		}
	}), rpc.ServerConfig{})
	go s.Serve(l)
	t.Cleanup(func() { l.Close(); s.Close() })
}

// TestDynamicJoinAndStaleEpochConvergence boots two nodes against a fake
// mgr with a long refresh interval, so only the stale-epoch protocol can
// reconcile their views: node A joins at epoch 1, node B's join bumps to
// epoch 2, and A learns of it when B's first fetch hits A with a newer
// epoch.
func TestDynamicJoinAndStaleEpochConvergence(t *testing.T) {
	net := transport.NewMem()
	fakeMgr(t, net, "mgr")

	start := func(id uint32, addr string) (*Node, *metrics.Registry) {
		buf := buffer.New(buffer.Config{BlockSize: testBlock, Capacity: 16})
		l, err := net.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		n, err := Start(Options{
			SelfID:          id,
			MgrAddr:         "mgr",
			Replicas:        1,
			FetchTimeout:    50 * time.Millisecond,
			RefreshInterval: time.Hour, // isolate the stale-epoch path
		}, buf, l, net, reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n, reg
	}

	a, aReg := start(0, "node-a")
	if got := a.Ring().Epoch(); got != 1 {
		t.Fatalf("first joiner sees epoch %d, want 1", got)
	}
	b, _ := start(1, "node-b")
	if got := b.Ring().Epoch(); got != 2 {
		t.Fatalf("second joiner sees epoch %d, want 2", got)
	}

	// B routes a get to A carrying epoch 2; A (still at 1) must answer
	// StaleEpoch and refresh itself.
	key := keyWithReplicas(t, b, 0) // primary = member index 0 (node A) in B's ring
	if got, _ := getAll(b, key); got[0] != nil {
		t.Fatal("unexpected hit")
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Ring().Epoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("node A never converged (epoch %d, stale_epochs=%d)",
				a.Ring().Epoch(), aReg.Counter("membership.stale_epochs").Value())
		}
		time.Sleep(time.Millisecond)
	}
	if aReg.Counter("membership.stale_epochs").Value() == 0 {
		t.Fatal("stale-epoch path never engaged")
	}

	// With views converged, traffic flows: B caches a block homed at A,
	// pushes it, and A-homed gets hit.
	data := bytes.Repeat([]byte{0x7E}, testBlock)
	b.Push(key, 0, data)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if got, _ := getAll(b, key); bytes.Equal(got[0], data) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pushed block never became fetchable after convergence")
		}
		time.Sleep(time.Millisecond)
	}
}

// frameCounter wraps a network and counts the frames written on every
// dialed connection, by dialed address and message type. While hold is
// set, a connection's next frame header blocks until it is released.
type frameCounter struct {
	transport.Network
	mu     sync.Mutex
	counts map[string]map[wire.Type]int
	hold   chan struct{} // non-nil: frame writes wait for it to close
}

func newFrameCounter(net transport.Network) *frameCounter {
	return &frameCounter{Network: net, counts: make(map[string]map[wire.Type]int)}
}

func (fc *frameCounter) Dial(addr string) (transport.Conn, error) {
	c, err := fc.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, fc: fc, addr: addr}, nil
}

func (fc *frameCounter) frames(addr string, typ wire.Type) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.counts[addr][typ]
}

// countingConn follows the frame boundaries of its write stream; rpc
// serializes writes per connection, so the parse state needs no lock.
type countingConn struct {
	transport.Conn
	fc   *frameCounter
	addr string
	hdr  []byte
	skip int
}

func (c *countingConn) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		if c.skip > 0 {
			n := min(c.skip, len(rest))
			c.skip -= n
			rest = rest[n:]
			continue
		}
		n := min(6-len(c.hdr), len(rest))
		c.hdr = append(c.hdr, rest[:n]...)
		rest = rest[n:]
		if len(c.hdr) < 6 {
			continue
		}
		word := binary.BigEndian.Uint32(c.hdr[0:4]) &^ (1 << 31)
		typ := wire.Type(binary.BigEndian.Uint16(c.hdr[4:6]))
		c.skip = int(word) - 2
		c.hdr = c.hdr[:0]
		c.fc.mu.Lock()
		if c.fc.counts[c.addr] == nil {
			c.fc.counts[c.addr] = make(map[wire.Type]int)
		}
		c.fc.counts[c.addr][typ]++
		hold := c.fc.hold
		c.fc.mu.Unlock()
		if hold != nil {
			<-hold
		}
	}
	return c.Conn.Write(p)
}

// TestStaleEpochRetriesOnce: a probe answered StaleEpoch refreshes the
// requester's view and is retried exactly once, against the new ring.
func TestStaleEpochRetriesOnce(t *testing.T) {
	fc := newFrameCounter(transport.NewMem())
	fakeMgr(t, fc, "mgr")
	start := func(id uint32, addr string) (*Node, *buffer.Manager, *metrics.Registry) {
		buf := buffer.New(buffer.Config{BlockSize: testBlock, Capacity: 16})
		l, err := fc.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		n, err := Start(Options{
			SelfID:          id,
			MgrAddr:         "mgr",
			Replicas:        1,
			FetchTimeout:    50 * time.Millisecond,
			RefreshInterval: time.Hour, // only explicit and stale-epoch refreshes
		}, buf, l, fc, reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n, buf, reg
	}
	a, _, aReg := start(0, "node-a")
	b, bBuf, bReg := start(1, "node-b")
	a.refreshView() // A and B at epoch 2
	start(2, "node-c")
	b.refreshView() // B at epoch 3; A stays behind at 2
	if a.Ring().Epoch() != 2 || b.Ring().Epoch() != 3 {
		t.Fatalf("epochs A=%d B=%d, want 2 and 3", a.Ring().Epoch(), b.Ring().Epoch())
	}

	// Keys homed at B in both A's stale ring and the current one.
	var keys []blockio.BlockKey
	for i := int64(0); len(keys) < 4; i++ {
		key := blockio.BlockKey{File: 1, Index: i}
		pa, pb := a.Ring().Primary(key), b.Ring().Primary(key)
		if a.Ring().Members()[pa].ID == 1 && b.Ring().Members()[pb].ID == 1 {
			keys = append(keys, key)
		}
	}
	data := bytes.Repeat([]byte{0x3C}, testBlock)
	for _, key := range keys {
		bBuf.InsertClean(key, 0, data)
	}

	got, _ := getAll(a, keys...)
	for i := range keys {
		if !bytes.Equal(got[i], data) {
			t.Fatalf("key %d missed after the stale-epoch retry", i)
		}
	}
	if a.Ring().Epoch() != 3 {
		t.Fatalf("requester still at epoch %d", a.Ring().Epoch())
	}
	if n := fc.frames("node-b", wire.TPeerGet); n != 2 {
		t.Fatalf("B got %d probe frames, want the stale one and one retry", n)
	}
	if v := bReg.Counter("membership.stale_epochs").Value(); v != 1 {
		t.Fatalf("membership.stale_epochs = %d, want 1", v)
	}
	if aReg.Counter("membership.epoch_refreshes").Value() == 0 {
		t.Fatal("the stale answer did not refresh the requester's view")
	}
}

// TestPushesCoalescePerPrimary: pushes queued for one primary travel as
// ⌈N/bound⌉ PeerPut frames, where bound is wire.MaxFrameBlocks at the
// block size, and every block is installed at the primary. The first push
// is held on the wire so the next N queue up behind it.
func TestPushesCoalescePerPrimary(t *testing.T) {
	for _, tc := range []struct {
		bs, n int
	}{
		{testBlock, 50},
		{8 << 20, 4}, // bound 3: two frames
	} {
		fc := newFrameCounter(transport.NewMem())
		r := newRigOn(t, fc, 2, 1, tc.bs, tc.n+2, Options{})
		keys := keysWithPrimary(t, r.nodes[0].Ring(), 1, tc.n+1)
		block := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, tc.bs) }

		hold := make(chan struct{})
		fc.mu.Lock()
		fc.hold = hold
		fc.mu.Unlock()
		r.nodes[0].Push(keys[0], 0, block(0))
		deadline := time.Now().Add(5 * time.Second)
		for fc.frames(addrOf(1), wire.TPeerPut) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("first push never reached the wire")
			}
			time.Sleep(time.Millisecond)
		}
		for i := 1; i <= tc.n; i++ {
			r.nodes[0].Push(keys[i], 0, block(i))
		}
		fc.mu.Lock()
		fc.hold = nil
		fc.mu.Unlock()
		close(hold)

		for i, key := range keys {
			for !r.bufs[1].Contains(key, 0, tc.bs) {
				if time.Now().After(deadline) {
					t.Fatalf("bs %d: block %d never installed at the primary (frames %d, puts_rx %d, push_tx %d)", tc.bs, i, fc.frames(addrOf(1), wire.TPeerPut), r.regs[1].Counter("gcache.puts_rx").Value(), r.regs[0].Counter("gcache.push_tx").Value())
				}
				time.Sleep(time.Millisecond)
			}
			dst := make([]byte, tc.bs)
			r.bufs[1].ReadSpan(key, 0, dst)
			if !bytes.Equal(dst, block(i)) {
				t.Fatalf("bs %d: block %d corrupt at the primary", tc.bs, i)
			}
		}
		bound := wire.MaxFrameBlocks(tc.bs)
		want := 1 + (tc.n+bound-1)/bound // the held frame, then the queue
		if got := fc.frames(addrOf(1), wire.TPeerPut); got != want {
			t.Fatalf("bs %d: %d pushes arrived in %d frames, want %d", tc.bs, tc.n+1, got, want)
		}
		// The primary installs before it acks; the sender counts on the
		// ack.
		pushTx := r.regs[0].Counter("gcache.push_tx")
		for pushTx.Value() < int64(tc.n+1) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if v := pushTx.Value(); v != int64(tc.n+1) {
			t.Fatalf("bs %d: gcache.push_tx = %d, want %d", tc.bs, v, tc.n+1)
		}
	}
}

// TestConcurrentGetsAndPushes drives vectored gets and pushes from several
// goroutines on every node at once (run under -race): every hit must
// carry the bytes its key was pushed or inserted with.
func TestConcurrentGetsAndPushes(t *testing.T) {
	r := newRig(t, 3, 2, Options{})
	const nkeys = 24
	blockOf := func(key blockio.BlockKey) []byte { return bytes.Repeat([]byte{byte(key.Index + 1)}, testBlock) }
	keys := make([]blockio.BlockKey, nkeys)
	for i := range keys {
		keys[i] = blockio.BlockKey{File: 1, Index: int64(i)}
	}
	var wg sync.WaitGroup
	for node := range r.nodes {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(n *Node, seed int) {
				defer wg.Done()
				for round := 0; round < 50; round++ {
					lo := (seed + round) % nkeys
					batch := keys[lo:min(lo+8, nkeys)]
					for _, key := range batch {
						n.Push(key, 0, blockOf(key))
					}
					n.Get(batch, func(i int, block []byte) {
						if !bytes.Equal(block, blockOf(batch[i])) {
							t.Errorf("key %v served wrong bytes", batch[i])
						}
					})
				}
			}(r.nodes[node], node*7+g*3)
		}
	}
	wg.Wait()
}
