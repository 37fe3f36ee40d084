package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/storage"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// The traced run wraps four seams, all from outside the program: the
// benchmark's own calls into pvfs (root spans, one request id each), the
// pvfs.Transport a process gets from its node's cache module, every
// transport.Network, and every storage.Backend. Each wrapper feeds
// per-layer histograms and counters while the tracer is armed (the
// measured phase); full spans are kept for a bounded sample and written
// out as JSON lines when the run ends.

const (
	sampleEvery    = 256  // one root request in this many keeps its spans
	maxSampledReqs = 512  // per process
	maxBgSpans     = 8192 // transport and storage spans, across all goroutines
)

type role int

const (
	roleMgr role = iota
	roleData
	roleFlush
	rolePeer
	roleInval
	roleOther
	numRoles
)

var roleNames = [numRoles]string{"mgr", "data", "flush", "peer", "inval", "other"}

// writeSpanNames are the background span names of connection writes, one
// per role, built once so the wrapper does not allocate per Write.
var writeSpanNames = func() (n [numRoles]string) {
	for r := range n {
		n[r] = "transport." + roleNames[r] + ".write"
	}
	return n
}()

// span is one recorded interval. Root spans have parent 0; request 0
// marks background work (flushes, storage calls, connection writes) that
// the wrappers cannot tie to the request that caused it.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	armed atomic.Bool

	mu        sync.Mutex
	roles     map[string]role
	modListen map[string]bool
	peerAddrs func() map[string]bool // global-cache members, when on

	netBytes, netWrites [numRoles]atomic.Int64

	stWrite, stRead        Hist
	stSyncs, stWriteBytes  atomic.Int64
	stReadBytes, bgSpanSeq atomic.Int64

	bgMu  sync.Mutex
	bg    []span
	procs []*procTrace
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roles: make(map[string]role), modListen: make(map[string]bool)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) setRole(addr string, r role) {
	t.mu.Lock()
	t.roles[addr] = r
	t.mu.Unlock()
}

// roleOf names the traffic to or from a listening address: the cluster's
// own ports are registered at boot; a cache module's listener is its
// global-cache peer service when the mgr's membership view lists it, and
// its invalidation listener otherwise.
func (t *tracer) roleOf(addr string) role {
	t.mu.Lock()
	r, ok := t.roles[addr]
	mod := t.modListen[addr]
	peers := t.peerAddrs
	t.mu.Unlock()
	switch {
	case ok:
		return r
	case !mod:
		return roleOther
	case peers != nil && peers()[addr]:
		t.setRole(addr, rolePeer)
		return rolePeer
	}
	return roleInval
}

func (t *tracer) bgSpan(name string, start, end int64) {
	if t.bgSpanSeq.Add(1)%sampleEvery != 0 {
		return
	}
	t.bgMu.Lock()
	if len(t.bg) < maxBgSpans {
		t.bg = append(t.bg, span{Name: name, Start: start, End: end})
	}
	t.bgMu.Unlock()
}

// writeSpans stores every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, p := range t.procs {
		for i := range p.spans {
			if err := enc.Encode(&p.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	for i := range t.bg {
		if err := enc.Encode(&t.bg[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- per-process root and cachemod spans ---

type interval struct{ start, end int64 }

type pendSend struct {
	id    pvfs.ReqID
	start int64
}

// procTrace is one client process's span state. A pvfs.Client is
// single-threaded, so nothing here is shared.
type procTrace struct {
	tr   *tracer
	proc uint64

	seq     uint64
	req     uint64 // current root request, 0 outside one
	sampled bool
	kept    int

	pend  []pendSend
	kids  []interval
	spans []span

	self, cachemod, mgr Hist
	selfNs, busyNs      int64
	readReqs            int64 // read requests handed to the transport
}

func (t *tracer) newProc(proc int) *procTrace {
	p := &procTrace{
		tr:    t,
		proc:  uint64(proc+1) << 48,
		pend:  make([]pendSend, 0, 64),
		kids:  make([]interval, 0, 64),
		spans: make([]span, 0, 1024),
	}
	t.procs = append(t.procs, p)
	return p
}

func (p *procTrace) begin() {
	p.seq++
	p.req = p.proc | p.seq
	p.sampled = p.seq%sampleEvery == 0 && p.kept < maxSampledReqs
	p.pend = p.pend[:0]
	p.kids = p.kids[:0]
}

// end closes the root span of a data op: its self time is the part of
// [start, end) that no cachemod request covers.
func (p *procTrace) end(name string, start, end int64) {
	slices.SortFunc(p.kids, func(a, b interval) int { return int(a.start - b.start) })
	var covered, hi int64
	hi = start
	for _, k := range p.kids {
		s, e := max(k.start, hi), min(k.end, end)
		if e > s {
			covered += e - s
			hi = e
		}
	}
	if p.tr.armed.Load() {
		p.self.Observe(end - start - covered)
		p.selfNs += end - start - covered
		p.busyNs += covered
	}
	p.keep(name, start, end)
	p.req = 0
}

// endMeta closes a metadata root span: the whole call is the mgr's.
func (p *procTrace) endMeta(name string, start, end int64) {
	if p.tr.armed.Load() {
		p.mgr.Observe(end - start)
	}
	p.keep(name, start, end)
	p.req = 0
}

func (p *procTrace) keep(name string, start, end int64) {
	if !p.sampled {
		return
	}
	p.kept++
	p.spans = append(p.spans, span{Req: p.req, ID: p.req, Name: name, Start: start, End: end})
	for i, k := range p.kids {
		p.spans = append(p.spans, span{Req: p.req, ID: p.req + uint64(i+1)<<32, Parent: p.req, Name: "cachemod", Start: k.start, End: k.end})
	}
}

func (p *procTrace) sent(id pvfs.ReqID, start int64) {
	p.pend = append(p.pend, pendSend{id, start})
}

func (p *procTrace) readSent() {
	if p.tr.armed.Load() {
		p.readReqs++
	}
}

func (p *procTrace) received(id pvfs.ReqID) {
	end := p.tr.now()
	for i, s := range p.pend {
		if s.id == id {
			p.pend[i] = p.pend[len(p.pend)-1]
			p.pend = p.pend[:len(p.pend)-1]
			p.kids = append(p.kids, interval{s.start, end})
			if p.tr.armed.Load() {
				p.cachemod.Observe(end - s.start)
			}
			return
		}
	}
}

// tracedTransport wraps the pvfs.Transport of one process. pvfs probes its
// transport for optional extensions by type assertion, so the wrapper
// implements every extension CachedTransport does and forwards each to
// the inner transport; without StripeHinter the readahead prefetcher
// would stop, without ReadSinker reads would lose the zero-copy path.
type tracedTransport struct {
	inner   pvfs.Transport
	p       *procTrace
	stripe  pvfs.StripeHinter
	pattern pvfs.ReadPatternHinter
	policy  pvfs.CachePolicyHinter
	tenant  pvfs.TenantHinter
	sinker  pvfs.ReadSinker
}

var (
	_ pvfs.StripeHinter      = (*tracedTransport)(nil)
	_ pvfs.ReadPatternHinter = (*tracedTransport)(nil)
	_ pvfs.CachePolicyHinter = (*tracedTransport)(nil)
	_ pvfs.TenantHinter      = (*tracedTransport)(nil)
	_ pvfs.ReadSinker        = (*tracedTransport)(nil)
)

func newTracedTransport(inner pvfs.Transport, p *procTrace) *tracedTransport {
	t := &tracedTransport{inner: inner, p: p}
	t.stripe, _ = inner.(pvfs.StripeHinter)
	t.pattern, _ = inner.(pvfs.ReadPatternHinter)
	t.policy, _ = inner.(pvfs.CachePolicyHinter)
	t.tenant, _ = inner.(pvfs.TenantHinter)
	t.sinker, _ = inner.(pvfs.ReadSinker)
	return t
}

func (t *tracedTransport) Send(iod int, req wire.Message) (pvfs.ReqID, error) {
	start := t.p.tr.now()
	id, err := t.inner.Send(iod, req)
	if err == nil {
		t.p.sent(id, start)
		switch req.(type) {
		case *wire.Read, *wire.ReadBlocks:
			t.p.readSent()
		}
	}
	return id, err
}

func (t *tracedTransport) SendRead(iod int, req wire.Message, sink [][]byte) (pvfs.ReqID, bool, error) {
	if t.sinker == nil {
		return 0, false, nil
	}
	start := t.p.tr.now()
	id, ok, err := t.sinker.SendRead(iod, req, sink)
	if ok && err == nil {
		t.p.sent(id, start)
		t.p.readSent()
	}
	return id, ok, err
}

func (t *tracedTransport) Recv(id pvfs.ReqID) (wire.Message, error) {
	msg, err := t.inner.Recv(id)
	t.p.received(id)
	return msg, err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

func (t *tracedTransport) StripeHint(file blockio.FileID, meta wire.FileMeta, totalIODs int) {
	if t.stripe != nil {
		t.stripe.StripeHint(file, meta, totalIODs)
	}
}

func (t *tracedTransport) NoteRead(file blockio.FileID, offset, length int64) {
	if t.pattern != nil {
		t.pattern.NoteRead(file, offset, length)
	}
}

func (t *tracedTransport) CachePolicyHint(file blockio.FileID, policy pvfs.CachePolicy) {
	if t.policy != nil {
		t.policy.CachePolicyHint(file, policy)
	}
}

func (t *tracedTransport) TenantHint(file blockio.FileID, tenant uint32, weight int) {
	if t.tenant != nil {
		t.tenant.TenantHint(file, tenant, weight)
	}
}

// --- transport.Network ---

// tapNetwork counts the bytes and Write calls of every connection by the
// role of the listening address. Over TCP the wire codec writes a framed
// message with payload as one writev; the wrapper hides the socket, so in
// the traced run that message arrives as two Write calls.
type tapNetwork struct {
	inner  transport.Network
	tr     *tracer
	module bool // listeners opened here belong to a cache module
}

func (n *tapNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	if n.module {
		n.tr.mu.Lock()
		n.tr.modListen[l.Addr()] = true
		n.tr.mu.Unlock()
	}
	return &tapListener{Listener: l, tr: n.tr}, nil
}

func (n *tapNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tr: n.tr, r: n.tr.roleOf(addr)}, nil
}

type tapListener struct {
	transport.Listener
	tr *tracer
}

func (l *tapListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tr: l.tr, r: l.tr.roleOf(l.Addr())}, nil
}

type tapConn struct {
	transport.Conn
	tr *tracer
	r  role
}

func (c *tapConn) Write(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	if c.tr.armed.Load() {
		c.tr.netBytes[c.r].Add(int64(n))
		c.tr.netWrites[c.r].Add(1)
		c.tr.bgSpan(writeSpanNames[c.r], start, c.tr.now())
	}
	return n, err
}

// --- storage.Backend ---

type tapBackend struct {
	storage.Backend
	tr *tracer
}

func (b *tapBackend) WriteAt(id blockio.FileID, off int64, p []byte) error {
	start := b.tr.now()
	err := b.Backend.WriteAt(id, off, p)
	if b.tr.armed.Load() {
		end := b.tr.now()
		b.tr.stWrite.Observe(end - start)
		b.tr.stWriteBytes.Add(int64(len(p)))
		b.tr.bgSpan("storage.write", start, end)
	}
	return err
}

func (b *tapBackend) ReadAt(id blockio.FileID, off int64, p []byte) (int, error) {
	start := b.tr.now()
	n, err := b.Backend.ReadAt(id, off, p)
	if b.tr.armed.Load() {
		end := b.tr.now()
		b.tr.stRead.Observe(end - start)
		b.tr.stReadBytes.Add(int64(n))
		b.tr.bgSpan("storage.read", start, end)
	}
	return n, err
}

func (b *tapBackend) Sync() error {
	err := b.Backend.Sync()
	if b.tr.armed.Load() {
		b.tr.stSyncs.Add(1)
	}
	return err
}
