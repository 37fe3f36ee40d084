// Package globalcache implements the first item of the paper's ongoing
// work (§5): "a global cache that can be shared by all the nodes ...
// before disk operations are really invoked."
//
// Every block has a primary home node plus failover replicas, chosen by
// consistent hashing over an epoch-versioned membership view
// (internal/membership). When a node fetches blocks from an iod it
// pushes copies to their primaries, coalescing whatever is queued for one
// primary into one PeerPut; when a request misses locally, the node asks
// the replica sets for all its owned missing blocks at once — one
// vectored PeerGet per primary, every one in flight before any is awaited
// — before going to the iod. Cluster memory thus acts as a second cache
// level between the per-node caches and the daemons.
//
// Robustness model:
//
//   - Reads walk the replica set, per group of blocks sharing a replica:
//     an error, timeout, or ejected peer moves the group's blocks to
//     their next replicas (membership.failovers counts each block's hop).
//     A clean miss from a reachable peer ends the walk — the common-case
//     miss must not pay replicas × latency.
//   - Every peer RPC is bounded by Options.FetchTimeout and every peer
//     client runs the rpc health breaker, so a dead peer costs a bounded
//     error and is then ejected until a background probe readmits it.
//   - The node joins the mgr-coordinated view (Options.MgrAddr) at
//     start, refreshes it periodically, carries the view's epoch on every
//     peer RPC, and answers mismatched epochs with StatusStaleEpoch so
//     both sides converge on the mgr's view.
package globalcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/membership"
	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// Defaults for the peer data plane. The fetch timeout is far above a
// healthy in-cluster round trip (microseconds to low milliseconds) but
// small enough that degrading to an iod read on a dead peer costs less
// than a human-visible stall.
const (
	DefaultFetchTimeout    = 100 * time.Millisecond
	DefaultProbeInterval   = 100 * time.Millisecond
	DefaultFailThreshold   = 3
	DefaultRefreshInterval = 500 * time.Millisecond
)

// Options assembles a node's view of the global cache. MgrAddr is
// required.
type Options struct {
	// SelfID is this node's stable member ID.
	SelfID uint32
	// SelfAddr is the advertised peer-service address. Empty means "use
	// the listener's address" — the normal shape, where the node listens
	// on ":0"-style addresses and advertises the result.
	SelfAddr string

	// MgrAddr is the mgr that coordinates membership: the node joins its
	// view at start, refreshes it periodically, and leaves on Close.
	MgrAddr string

	// VNodes and Replicas shape the consistent-hash ring
	// (membership.DefaultVNodes / DefaultReplicas when zero).
	VNodes   int
	Replicas int

	// FetchTimeout bounds each peer round trip — one vectored probe of a
	// primary group, or one coalesced push; ProbeInterval and
	// FailThreshold configure the per-peer health breaker;
	// RefreshInterval paces view refreshes. Zero selects the package
	// defaults.
	FetchTimeout    time.Duration
	ProbeInterval   time.Duration
	FailThreshold   int
	RefreshInterval time.Duration
}

func (o *Options) fetchTimeout() time.Duration {
	if o.FetchTimeout <= 0 {
		return DefaultFetchTimeout
	}
	return o.FetchTimeout
}

func (o *Options) probeInterval() time.Duration {
	if o.ProbeInterval <= 0 {
		return DefaultProbeInterval
	}
	return o.ProbeInterval
}

func (o *Options) refreshInterval() time.Duration {
	if o.RefreshInterval <= 0 {
		return DefaultRefreshInterval
	}
	return o.RefreshInterval
}

// Node is one node's complete global-cache presence: the peer service
// answering PeerGet/PeerPut against the local buffer manager, the client
// side that queries and feeds remote peers, and the membership state
// (current ring, epoch, refresh machinery) both sides share.
type Node struct {
	opts    Options
	buf     *buffer.Manager
	network transport.Network

	l   transport.Listener
	srv *rpc.Server

	mc   *membership.Client
	ring atomic.Pointer[membership.Ring]

	refreshMu sync.Mutex // serializes view refreshes (single-flight)
	refreshQ  atomic.Bool

	mu    sync.Mutex
	peers map[string]*rpc.Client // keyed by address; members shift indices across views

	ctr counters

	// Each pool holds one size class, so a small Get never pins a large
	// buffer: served probe answers (request-sized), per-block push copies
	// (block-sized, up to cap(pushCh) of them queued), and coalesced push
	// frames (batch-sized, released after the ack).
	respBufs  rpc.BufPool
	pushBufs  rpc.BufPool
	frameBufs rpc.BufPool
	pushCh    chan pushItem
	wg        sync.WaitGroup
	stop      chan struct{}
	once      sync.Once
	killed    atomic.Bool
}

// counters are the node's metric handles, resolved once at Start so the
// per-block paths never take the registry lock. Every gcache.* counter
// counts blocks, not messages.
type counters struct {
	getHits, getMisses, pushTx, pushDropped *metrics.Counter
	serveHits, serveMisses, putsRx          *metrics.Counter
	staleEpochs, epochRefreshes, failovers  *metrics.Counter
	ejections, readmissions, reprobes       *metrics.Counter
}

func newCounters(reg *metrics.Registry) counters {
	return counters{
		getHits:        reg.Counter("gcache.get_hits"),
		getMisses:      reg.Counter("gcache.get_misses"),
		pushTx:         reg.Counter("gcache.push_tx"),
		pushDropped:    reg.Counter("gcache.push_dropped"),
		serveHits:      reg.Counter("gcache.serve_hits"),
		serveMisses:    reg.Counter("gcache.serve_misses"),
		putsRx:         reg.Counter("gcache.puts_rx"),
		staleEpochs:    reg.Counter("membership.stale_epochs"),
		epochRefreshes: reg.Counter("membership.epoch_refreshes"),
		failovers:      reg.Counter("membership.failovers"),
		ejections:      reg.Counter("membership.ejections"),
		readmissions:   reg.Counter("membership.readmissions"),
		reprobes:       reg.Counter("membership.reprobes"),
	}
}

// pushItem is one queued push: a pooled copy of a fetched block.
type pushItem struct {
	key   blockio.BlockKey
	owner uint32
	data  []byte
}

// Start brings up a node's global cache on l: serve the local buffer
// manager to peers, join the mgr's membership view, and start the push
// forwarder and view refresher.
func Start(opts Options, buf *buffer.Manager, l transport.Listener, network transport.Network, reg *metrics.Registry) (*Node, error) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if opts.MgrAddr == "" {
		return nil, errors.New("globalcache: Options.MgrAddr is required")
	}
	if opts.SelfAddr == "" {
		opts.SelfAddr = l.Addr()
	}
	n := &Node{
		opts:    opts,
		buf:     buf,
		network: network,
		l:       l,
		peers:   make(map[string]*rpc.Client),
		ctr:     newCounters(reg),
		// 256 queued block copies bound what a slow primary can pin on
		// this node (256 × the block size); past that, pushes drop.
		pushCh: make(chan pushItem, 256),
		stop:   make(chan struct{}),
	}

	n.mc = membership.NewClient(network, opts.MgrAddr, 0)
	view, err := n.mc.Join(opts.SelfID, opts.SelfAddr)
	if err != nil {
		n.mc.Close()
		return nil, fmt.Errorf("globalcache: joining view via %s: %w", opts.MgrAddr, err)
	}
	n.ring.Store(membership.NewRing(view, opts.VNodes, opts.Replicas))

	n.srv = rpc.NewServer(rpc.HandlerFunc(n.handle), rpc.ServerConfig{AfterWrite: n.recycle})
	go n.srv.Serve(l)

	n.wg.Add(2)
	go n.pushLoop()
	go n.refreshLoop()
	return n, nil
}

// Ring returns the node's current ring (test and bench introspection).
func (n *Node) Ring() *membership.Ring { return n.ring.Load() }

// Close leaves the view, stops the forwarder and refresher, and closes
// the service and every peer connection.
func (n *Node) Close() error {
	n.once.Do(func() { close(n.stop) })
	n.wg.Wait()
	// Best-effort deregistration: the mgr drops us from the view so
	// surviving peers stop routing to this address after their next
	// refresh. A dead mgr must not block shutdown.
	n.mc.Leave(n.opts.SelfID) //nolint:errcheck
	n.mc.Close()
	err := n.l.Close()
	n.srv.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, rc := range n.peers {
		rc.Close()
	}
	n.peers = make(map[string]*rpc.Client)
	return err
}

// KillService fail-stops the peer service only — listener and server die,
// the client side keeps running and the view keeps its entry. It models a
// crashed cache peer for the chaos harness: other nodes' fetches to this
// node start failing and must fail over, while this node's own reads
// degrade to iod traffic.
func (n *Node) KillService() {
	if n.killed.Swap(true) {
		return
	}
	n.l.Close()
	n.srv.Close()
}

// --- service side ---

func (n *Node) handle(msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case *wire.PeerGet:
		if st := n.epochCheck(m.Epoch); st != wire.StatusOK {
			return &wire.PeerGetResp{Status: st}
		}
		bs := n.buf.BlockSize()
		if len(m.Indexes) > wire.MaxFrameBlocks(bs) {
			// The answer could not be framed; legitimate peers split
			// their probes at this bound.
			return &wire.PeerGetResp{Status: wire.StatusBadRequest}
		}
		data := n.respBufs.Get(len(m.Indexes) * bs)
		found := make([]bool, len(m.Indexes))
		packed := 0
		for i, idx := range m.Indexes {
			if n.buf.ReadSpan(blockio.BlockKey{File: m.File, Index: idx}, 0, data[packed:packed+bs]) {
				found[i] = true
				packed += bs
			}
		}
		n.ctr.serveHits.Add(int64(packed / bs))
		n.ctr.serveMisses.Add(int64(len(m.Indexes) - packed/bs))
		return &wire.PeerGetResp{Status: wire.StatusOK, Found: found, Data: data[:packed]}
	case *wire.PeerPut:
		if st := n.epochCheck(m.Epoch); st != wire.StatusOK {
			return &wire.PeerPutAck{Status: st}
		}
		// Wire-supplied Data is peer-controlled. Legitimate peers always
		// push whole blocks; an oversize one would panic InsertClean, and
		// a SHORT one would be zero-filled and marked whole-valid — this
		// node would then serve those fabricated zero bytes to the whole
		// cluster as the block's home. Reject anything but one whole
		// block per entry, before installing any.
		bs := n.buf.BlockSize()
		if len(m.Data) != len(m.Entries)*bs {
			return &wire.PeerPutAck{Status: wire.StatusBadRequest}
		}
		for i, e := range m.Entries {
			n.buf.InsertClean(blockio.BlockKey{File: e.File, Index: e.Index}, int(e.Owner), m.Data[i*bs:(i+1)*bs])
		}
		n.ctr.putsRx.Add(int64(len(m.Entries)))
		return &wire.PeerPutAck{Status: wire.StatusOK}
	default:
		return nil
	}
}

// epochCheck compares a request's epoch against ours. Mismatch answers
// StatusStaleEpoch; when the requester is ahead, we are the stale side
// and kick an async refresh so we catch up without blocking the handler.
func (n *Node) epochCheck(reqEpoch uint64) wire.Status {
	ours := n.ring.Load().Epoch()
	if reqEpoch == 0 || ours == 0 || reqEpoch == ours {
		return wire.StatusOK
	}
	n.ctr.staleEpochs.Inc()
	if reqEpoch > ours {
		n.asyncRefresh()
	}
	return wire.StatusStaleEpoch
}

// recycle returns a served probe answer's buffer to the pool after the
// response has been written.
func (n *Node) recycle(resp wire.Message) {
	if gr, ok := resp.(*wire.PeerGetResp); ok {
		n.respBufs.Put(gr.Data)
	}
}

// --- membership refresh ---

// refreshLoop periodically re-fetches the view so epoch changes propagate
// even to idle nodes (a node that never trips a stale-epoch response
// still learns about joins within RefreshInterval).
func (n *Node) refreshLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.opts.refreshInterval())
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.refreshView()
		}
	}
}

// refreshView fetches the current view and swaps the ring if the epoch
// moved. Concurrent callers collapse onto one fetch.
func (n *Node) refreshView() bool {
	n.refreshMu.Lock()
	defer n.refreshMu.Unlock()
	v, err := n.mc.Fetch()
	if err != nil {
		return false
	}
	cur := n.ring.Load()
	if v.Epoch == cur.Epoch() {
		return false
	}
	n.ring.Store(membership.NewRing(v, n.opts.VNodes, n.opts.Replicas))
	n.ctr.epochRefreshes.Inc()
	return true
}

// asyncRefresh schedules a refreshView off the caller's goroutine,
// single-flight: one pending refresh at a time.
func (n *Node) asyncRefresh() {
	if !n.refreshQ.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer n.refreshQ.Store(false)
		n.refreshView()
	}()
}

// --- client side ---

// Get probes cluster memory for the owned missing blocks of one request
// and calls hit(i, block) for every keys[i] a peer served. block is one
// whole block aliasing the response frame: it is valid only during the
// call, and the callee copies what it keeps. Calls arrive in no fixed
// key order, on the caller's goroutine, before Get returns.
//
// The walk is primary-first, per group: the keys are grouped by the
// replica their walk has reached and by file, and each group travels as
// one PeerGet, every group of a round in flight before any is awaited.
// An error, timeout or ejected peer fails the group's keys over to their
// next replicas (the next round); a clean answer from a reachable peer
// ends their walk, found or not; a key whose walk reaches this node
// itself ends there too — our own cache already missed. A stale-epoch
// answer refreshes the view and retries that group's keys once against
// the new ring.
//
// Get returns the number of keys whose answer was malformed — not one
// whole block per found flag — and so was dropped: a healthy peer never
// sends one.
func (n *Node) Get(keys []blockio.BlockKey, hit func(i int, block []byte)) (bad int) {
	if len(keys) == 0 {
		return 0
	}
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	hits := 0
	for attempt := 0; attempt < 2; attempt++ {
		h, b, stale := n.walk(n.ring.Load(), keys, pending, hit)
		hits += h
		bad += b
		if len(stale) == 0 || !n.refreshView() {
			break
		}
		pending = stale // one retry against the new ring
	}
	n.ctr.getHits.Add(int64(hits))
	n.ctr.getMisses.Add(int64(len(keys) - hits))
	return bad
}

// probeGroup is the keys (indexes into Get's keys) of one file that one
// replica is asked for in a walk round.
type probeGroup struct {
	member int
	file   blockio.FileID
	keys   []int
}

// probe is one PeerGet in flight.
type probe struct {
	x    exchange
	keys []int
}

// walk runs the replica walk for keys[pending] against one ring, in rounds
// (see Get). It returns the hits and malformed answers it saw and the keys
// a peer answered with a stale epoch.
func (n *Node) walk(ring *membership.Ring, keys []blockio.BlockKey, pending []int, hit func(int, []byte)) (hits, bad int, stale []int) {
	bs := n.buf.BlockSize()
	members := ring.Members()
	rep := ring.Replicas()
	flat := make([]int, len(keys)*rep)
	sets := make([][]int, len(keys))
	pos := make([]int, len(keys))
	for _, k := range pending {
		sets[k] = ring.ReplicaSet(keys[k], flat[k*rep:k*rep:(k+1)*rep])
	}
	for active := pending; len(active) > 0; {
		var groups []probeGroup
		for _, k := range active {
			set := sets[k]
			if pos[k] >= len(set) {
				continue // every replica failed: a miss
			}
			mi := set[pos[k]]
			if members[mi].ID == n.opts.SelfID {
				continue // our own cache already missed; the block is not here
			}
			if pos[k] > 0 {
				n.ctr.failovers.Inc()
			}
			gi := 0
			for gi < len(groups) && (groups[gi].member != mi || groups[gi].file != keys[k].File) {
				gi++
			}
			if gi == len(groups) {
				groups = append(groups, probeGroup{member: mi, file: keys[k].File})
			}
			groups[gi].keys = append(groups[gi].keys, k)
		}
		var probes []probe
		for _, g := range groups {
			for len(g.keys) > 0 {
				chunk := g.keys[:min(len(g.keys), wire.MaxFrameBlocks(bs))]
				g.keys = g.keys[len(chunk):]
				idx := make([]int64, len(chunk))
				for j, k := range chunk {
					idx[j] = keys[k].Index
				}
				req := &wire.PeerGet{File: g.file, Epoch: ring.Epoch(), Indexes: idx}
				probes = append(probes, probe{x: n.begin(members[g.member].Addr, req), keys: chunk})
			}
		}
		var next []int
		for _, p := range probes {
			res, err := p.x.finish()
			var gr *wire.PeerGetResp
			if err == nil {
				if gr, _ = res.Msg.(*wire.PeerGetResp); gr == nil {
					res.Release()
				}
			}
			if gr == nil {
				// Unreachable, or not speaking the protocol: fail over.
				for _, k := range p.keys {
					pos[k]++
				}
				next = append(next, p.keys...)
				continue
			}
			switch {
			case gr.Status == wire.StatusStaleEpoch:
				stale = append(stale, p.keys...)
			case gr.Status != wire.StatusOK:
				// A reachable peer answered without the blocks: their walk
				// ends.
			case !gr.CheckBlocks(len(p.keys), bs):
				bad += len(p.keys)
			default:
				data := gr.Data
				for j, k := range p.keys {
					if gr.Found[j] {
						hit(k, data[:bs:bs])
						data = data[bs:]
						hits++
					}
				}
			}
			res.Release()
		}
		active = next
	}
	return hits, bad, stale
}

// Push asynchronously forwards a freshly fetched block to its primary
// home node. Blocks homed at this node are ignored (they are already in
// the local cache), as is anything but a whole block. data is copied into
// a pooled buffer before Push returns, so the caller may recycle it
// immediately; a full queue drops the push (gcache.push_dropped).
func (n *Node) Push(key blockio.BlockKey, owner int, data []byte) {
	if len(data) != n.buf.BlockSize() {
		return
	}
	ring := n.ring.Load()
	p := ring.Primary(key)
	if p < 0 || ring.Members()[p].ID == n.opts.SelfID {
		return
	}
	cp := n.pushBufs.Get(len(data))
	copy(cp, data)
	select {
	case n.pushCh <- pushItem{key: key, owner: uint32(owner), data: cp}:
	default:
		n.pushBufs.Put(cp)
		n.ctr.pushDropped.Inc()
	}
}

// pushLoop delivers queued pushes: each wakeup drains whatever is queued
// (at most the queue's capacity) and sends it as one coalesced PeerPut per
// primary.
func (n *Node) pushLoop() {
	defer n.wg.Done()
	batch := make([]pushItem, 0, cap(n.pushCh))
	for {
		select {
		case <-n.stop:
			return
		case it := <-n.pushCh:
			batch = append(batch[:0], it)
		drain:
			for len(batch) < cap(batch) {
				select {
				case it := <-n.pushCh:
					batch = append(batch, it)
				default:
					break drain
				}
			}
			n.deliverPushes(batch)
			for i := range batch {
				n.pushBufs.Put(batch[i].data)
				batch[i] = pushItem{}
			}
		}
	}
}

// put is one coalesced PeerPut in flight.
type put struct {
	x     exchange
	items []pushItem
	frame []byte // the packed data, pooled until the ack
}

// deliverPushes sends a drained batch: one PeerPut per primary, split at
// wire.MaxFrameBlocks, every one in flight before any ack is awaited.
// Primaries are re-resolved at send time against the current ring (the
// view may have moved since Push), and a stale-epoch answer refreshes the
// view and retries that frame's blocks once against their new primaries.
// Delivery is best-effort: a failed push just leaves its blocks
// unreplicated.
func (n *Node) deliverPushes(items []pushItem) {
	bs := n.buf.BlockSize()
	for attempt := 0; attempt < 2 && len(items) > 0; attempt++ {
		ring := n.ring.Load()
		members := ring.Members()
		byPrimary := make(map[int][]pushItem)
		for _, it := range items {
			if p := ring.Primary(it.key); p >= 0 && members[p].ID != n.opts.SelfID {
				byPrimary[p] = append(byPrimary[p], it)
			}
		}
		var puts []put
		for p, group := range byPrimary {
			for len(group) > 0 {
				chunk := group[:min(len(group), wire.MaxFrameBlocks(bs))]
				group = group[len(chunk):]
				frame := n.frameBufs.Get(len(chunk) * bs)
				entries := make([]wire.PeerPutEntry, len(chunk))
				for i, it := range chunk {
					entries[i] = wire.PeerPutEntry{File: it.key.File, Index: it.key.Index, Owner: it.owner}
					copy(frame[i*bs:], it.data)
				}
				req := &wire.PeerPut{Epoch: ring.Epoch(), Entries: entries, Data: frame}
				puts = append(puts, put{x: n.begin(members[p].Addr, req), items: chunk, frame: frame})
			}
		}
		var stale []pushItem
		for _, p := range puts {
			res, err := p.x.finish()
			n.frameBufs.Put(p.frame)
			if err != nil {
				continue
			}
			ack, ok := res.Msg.(*wire.PeerPutAck)
			res.Release()
			switch {
			case !ok:
			case ack.Status == wire.StatusOK:
				n.ctr.pushTx.Add(int64(len(p.items)))
			case ack.Status == wire.StatusStaleEpoch:
				stale = append(stale, p.items...)
			}
		}
		if len(stale) == 0 || !n.refreshView() {
			return
		}
		items = stale
	}
}

// exchange is one bounded round trip with a peer: begun by begin, which
// puts it in flight, and finished by finish.
type exchange struct {
	rc  *rpc.Client
	req wire.Message
	p   rpc.Pending
}

func (n *Node) begin(addr string, req wire.Message) exchange {
	rc := n.peerClient(addr)
	return exchange{rc: rc, req: req, p: rc.Start(req)}
}

// finish awaits the exchange's response. A failure other than a timeout
// or an ejection gets one immediate synchronous retry so a stale pooled
// connection can redial; timeouts and ejections propagate straight out
// so the caller fails over instead of paying the bound twice.
func (x *exchange) finish() (rpc.Result, error) {
	res := x.p.Wait()
	if res.Err != nil && !errors.Is(res.Err, rpc.ErrCallTimeout) && !errors.Is(res.Err, rpc.ErrPeerEjected) {
		res = x.rc.Call(x.req)
	}
	if res.Err != nil {
		return rpc.Result{}, fmt.Errorf("globalcache: peer %s unreachable: %w", x.rc.Addr(), res.Err)
	}
	return res, nil
}

func (n *Node) peerClient(addr string) *rpc.Client {
	n.mu.Lock()
	defer n.mu.Unlock()
	rc := n.peers[addr]
	if rc == nil {
		rc = rpc.NewClient(rpc.ClientConfig{
			Network:     n.network,
			Addr:        addr,
			CallTimeout: n.opts.fetchTimeout(),
			Health: &rpc.HealthConfig{
				FailThreshold: n.opts.FailThreshold,
				ProbeInterval: n.opts.probeInterval(),
				OnEject:       n.ctr.ejections.Inc,
				OnReadmit:     n.ctr.readmissions.Inc,
				OnProbe:       n.ctr.reprobes.Inc,
			},
		})
		n.peers[addr] = rc
	}
	return rc
}
