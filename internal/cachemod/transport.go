package cachemod

import (
	"fmt"
	"sync"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/rpc"
	"pvfscache/internal/wire"
)

// CachedTransport is one application process's view of the cache module:
// it implements pvfs.Transport, so libpvfs uses it exactly like a socket,
// while every CachedTransport created from the same Module shares the
// node's block cache. This mirrors the paper's finite state machine per
// socket: Send transitions a request into the pending state (issuing
// network sub-requests only for the missing pieces) and Recv completes it
// (faking acknowledgments for whatever the cache absorbed).
type CachedTransport struct {
	m *Module

	mu      sync.Mutex
	next    pvfs.ReqID
	pending map[pvfs.ReqID]*pendingOp
}

// NewTransport returns a transport for one application process.
func (m *Module) NewTransport() *CachedTransport {
	return &CachedTransport{m: m, next: 1, pending: make(map[pvfs.ReqID]*pendingOp)}
}

// StripeHint implements pvfs.StripeHinter: libpvfs announces a file's
// striping geometry whenever it opens or refreshes a file, which is what
// lets the module's readahead prefetcher route upcoming blocks to the
// iods that hold them.
func (t *CachedTransport) StripeHint(file blockio.FileID, meta wire.FileMeta, totalIODs int) {
	t.m.SetStripeHint(file, meta, totalIODs)
}

// NoteRead implements pvfs.ReadPatternHinter: libpvfs reports each whole
// application read, and the module's sequential detector keys on that
// stream. Detection cannot live on the Send path: the pieces of one
// striped read arrive as several ascending Sends, so a random workload
// of multi-piece requests would look like a scan and prefetch garbage.
func (t *CachedTransport) NoteRead(file blockio.FileID, offset, length int64) {
	if length <= 0 {
		return
	}
	first, count := blockio.BlockRange(offset, length, t.m.buf.BlockSize())
	t.m.maybeReadahead(file, first, first+count-1)
}

// CachePolicyHint implements pvfs.CachePolicyHinter: libpvfs forwards a
// file's per-open cache-policy hint (don't-cache / must-cache / default)
// and the module applies it to every admission decision for the file.
func (t *CachedTransport) CachePolicyHint(file blockio.FileID, policy pvfs.CachePolicy) {
	t.m.SetCachePolicy(file, policy)
}

// TenantHint implements pvfs.TenantHinter: libpvfs forwards a file's
// per-open tenant (principal) tag and scheduling weight, and the module
// charges the file's dirty frames and in-flight fetches to that principal
// (see qos.go).
func (t *CachedTransport) TenantHint(file blockio.FileID, tenant uint32, weight int) {
	t.m.SetTenant(file, tenant, weight)
}

// pendingOp is the per-request FSM state between Send and Recv.
type pendingOp struct {
	ready wire.Message      // response already known (fake ack, full cache hit)
	read  *pendingRead      // read with outstanding transfers
	call  <-chan rpc.Result // passthrough round trip
}

// pendingRead tracks a read whose missing pieces are in flight. Every
// span of the request resolved its destination slice at classification
// time: a region of the caller's own buffer (see SendRead), or of result
// — the response payload Send allocates. A vectored request (libpvfs sent
// a ReadBlocks) is answered with a ReadBlocksResp, whose per-extent byte
// counts lens carries; a plain Read with a ReadResp.
type pendingRead struct {
	result  []byte // response payload; nil on the SendRead path (status-only)
	fetches []fetch
	waits   []spanWait
	vector  bool
	lens    []uint32  // vector only
	admit   admitMode // admission decision, fixed once per request

	// qos is the tenant state charged qosBlocks in-flight read blocks at
	// classification time (nil when budgets are off); trace is the armed
	// per-request trace, nil when disarmed.
	qos       *tenantState
	qosBlocks int
	trace     *reqTrace
}

// response is the request's reply in the shape its request asked for.
func (pr *pendingRead) response(status wire.Status) wire.Message {
	if pr.vector {
		return &wire.ReadBlocksResp{Status: status, Lens: pr.lens, Data: pr.result}
	}
	return &wire.ReadResp{Status: status, Data: pr.result}
}

// releaseBudget returns the request's in-flight read-block charge to its
// tenant. Idempotent: every exit from the read FSM — full hit, completed,
// issue error — calls it exactly where the request stops being in flight.
func (pr *pendingRead) releaseBudget() {
	if pr.qos != nil {
		pr.qos.inflight.Add(-int64(pr.qosBlocks))
		pr.qos = nil
	}
}

// tgtSpan is one block span of the request together with the destination
// it must be copied to.
type tgtSpan struct {
	sp  blockio.Span
	dst []byte
}

// fetchRun is a run of consecutive claimed blocks: one extent of a
// vectored fetch.
type fetchRun struct {
	firstIdx int64
	keys     []blockio.BlockKey
	states   []*fetchState
	spans    []tgtSpan // request spans served by this run
}

// fetch is one network round trip issued for claimed blocks (a request's
// misses or a readahead window): a ReadBlocks carrying one extent per run.
type fetch struct {
	iod  int
	ch   <-chan rpc.Result
	runs []fetchRun
}

// ownedSpan pairs a missing span with the fetch-table entry claimed for
// its block. A prefetch claim has only the block key and no destination.
type ownedSpan struct {
	sp  blockio.Span
	dst []byte
	st  *fetchState
}

// spanWait is a span whose block another process (or the prefetcher) is
// already fetching. The waiter holds a fetchState reference (acquired
// under fetchMu at join time) and must decref exactly once after done.
type spanWait struct {
	key blockio.BlockKey
	off int
	dst []byte
	st  *fetchState
	iod int
}

// Send implements pvfs.Transport. For reads and writes it runs the cache
// FSM; any other message passes through to the iod untouched, keeping the
// module transparent to protocol extensions.
func (t *CachedTransport) Send(iod int, req wire.Message) (pvfs.ReqID, error) {
	if iod < 0 || iod >= len(t.m.data) {
		return 0, fmt.Errorf("cachemod: iod index %d out of range", iod)
	}
	var op *pendingOp
	var err error
	switch r := req.(type) {
	case *wire.Read:
		op, err = t.sendRead(iod, r, nil)
	case *wire.ReadBlocks:
		op, err = t.sendVectorRead(iod, r, nil, true)
	case *wire.Write:
		op, err = t.sendWrite(iod, r)
	case *wire.SyncWrite:
		op, err = t.sendSyncWrite(iod, r)
	default:
		ch, cerr := t.m.data[iod].Go(req)
		if cerr != nil {
			return 0, cerr
		}
		op = &pendingOp{call: ch}
	}
	if err != nil {
		return 0, err
	}
	return t.register(op), nil
}

// SendRead implements pvfs.ReadSinker: the zero-copy read entry point.
// sink carries one destination slice per extent of the request (a single
// slice for a plain Read), and the FSM scatters every byte — cache hits,
// fetch joins, fetched runs — directly into them; the Recv response is
// then status-only. It declines (ok=false, which libpvfs reports as an
// error) when the message is not a read or the sink does not tile the
// request.
func (t *CachedTransport) SendRead(iod int, req wire.Message, sink [][]byte) (pvfs.ReqID, bool, error) {
	if iod < 0 || iod >= len(t.m.data) {
		return 0, false, fmt.Errorf("cachemod: iod index %d out of range", iod)
	}
	var op *pendingOp
	var err error
	switch r := req.(type) {
	case *wire.Read:
		if len(sink) != 1 || int64(len(sink[0])) != r.Length {
			return 0, false, nil
		}
		op, err = t.sendRead(iod, r, sink)
	case *wire.ReadBlocks:
		if len(sink) != len(r.Exts) {
			return 0, false, nil
		}
		for i, e := range r.Exts {
			if int64(len(sink[i])) != e.Length {
				return 0, false, nil
			}
		}
		op, err = t.sendVectorRead(iod, r, sink, true)
	default:
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return t.register(op), true, nil
}

// register files a pending op and returns its request id.
func (t *CachedTransport) register(op *pendingOp) pvfs.ReqID {
	t.mu.Lock()
	id := t.next
	t.next++
	t.pending[id] = op
	t.mu.Unlock()
	return id
}

// Recv implements pvfs.Transport: it completes the pending request,
// waiting for outstanding transfers if necessary.
func (t *CachedTransport) Recv(id pvfs.ReqID) (wire.Message, error) {
	t.mu.Lock()
	op, ok := t.pending[id]
	delete(t.pending, id)
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cachemod: unknown request id %d", id)
	}
	switch {
	case op.ready != nil:
		return op.ready, nil
	case op.read != nil:
		return t.completeRead(op.read)
	case op.call != nil:
		res := <-op.call
		return res.Msg, res.Err
	default:
		return nil, fmt.Errorf("cachemod: empty pending op %d", id)
	}
}

// Close drops per-process state. The module (shared by every process on
// the node) stays up.
func (t *CachedTransport) Close() error {
	t.mu.Lock()
	t.pending = make(map[pvfs.ReqID]*pendingOp)
	t.mu.Unlock()
	return nil
}

// --- read path ---

// classifySpan classifies one block span of a read: a cache hit copies
// into dst now, an in-flight fetch (another process's miss or a prefetch)
// becomes a join, and everything else is an owned miss returned to the
// caller — for the request's one global-cache probe, then fetching.
// dst is the span's destination in the request's sink.
func (t *CachedTransport) classifySpan(iod int, sp blockio.Span, dst []byte, pr *pendingRead, owned []ownedSpan) []ownedSpan {
	if t.m.buf.ReadSpan(sp.Key, sp.Off, dst) {
		t.m.notePrefetchHit(sp.Key)
		return owned
	}
	st, joined := t.m.claim(sp.Key, true)
	if joined {
		pr.waits = append(pr.waits, spanWait{key: sp.Key, off: sp.Off, dst: dst, st: st, iod: iod})
		return owned
	}
	return append(owned, ownedSpan{sp: sp, dst: dst, st: st})
}

// probeGlobalCache is the global-cache extension's step between
// classification and the iod fetch: one vectored probe of cluster memory
// for every owned miss of the request (one round trip per primary, see
// globalcache.Node.Get). Each hit installs, publishes to joiners and
// fills its destination exactly as a fetched block does; the misses are
// returned, in order, for the iod fetch. A read-around request skips the
// probe: its blocks must not be installed here, and a stream hammering
// the peer ring would displace exactly the shared blocks the ring exists
// for.
func (t *CachedTransport) probeGlobalCache(iod int, owned []ownedSpan, pr *pendingRead) []ownedSpan {
	if t.m.gcNode == nil || pr.admit == admitNever || len(owned) == 0 {
		return owned
	}
	keys := make([]blockio.BlockKey, len(owned))
	for i, o := range owned {
		keys[i] = o.sp.Key
	}
	served := make([]bool, len(owned))
	bad := t.m.gcNode.Get(keys, func(i int, block []byte) {
		o := owned[i]
		data, mem := t.m.getBlock()
		copy(data, block)
		// Resident bytes outrank the peer copy; a stale install (the
		// block was written here since the probe began) stays a miss and
		// goes to the iod fetch, whose install is stale too, so the span
		// is re-fetched against a fresh stamp once the request's fetches
		// land.
		if t.m.buf.InstallFetchedAdmit(o.sp.Key, iod, data, pr.admit == admitMust, o.st.stamp) != buffer.OutcomeStale {
			copy(o.dst, data[o.sp.Off:o.sp.Off+o.sp.Len])
			t.m.publishFetched(o.st, o.sp.Key, data, mem)
			o.st.decref() // the owner's hold; joiners keep the block alive
			served[i] = true
			t.m.gcHits.Inc()
		}
		mem.release() // the creator's hold
	})
	// A malformed answer was dropped whole: its blocks install nothing
	// and fall through to the iod fetch.
	t.m.gcBadResp.Add(int64(bad))
	misses := owned[:0]
	for i, o := range owned {
		if !served[i] {
			misses = append(misses, o)
		}
	}
	pr.trace.hop("global cache: %d of %d misses served by peers", len(owned)-len(misses), len(owned))
	return misses
}

// sendRead runs a plain Read through the same state machine as a
// one-extent vectored request; only the reply shape (ReadResp) differs.
func (t *CachedTransport) sendRead(iod int, req *wire.Read, sink [][]byte) (*pendingOp, error) {
	exts := [1]wire.ReadExtent{{Offset: req.Offset, Length: req.Length}}
	return t.sendVectorRead(iod, &wire.ReadBlocks{File: req.File, Exts: exts[:]}, sink, false)
}

// sendVectorRead is the read FSM. Every block span of every extent is
// classified as a cache hit, a join on an in-flight fetch, or a miss this
// process must fetch; whatever is missing across the whole request leaves
// in one vectored sub-request per frame's worth of blocks, so a cached
// block in the middle of a request costs an extent boundary, not an extra
// round trip. libpvfs sends a ReadBlocks (vector set) when several
// striping pieces of an operation land on the same daemon, and a plain
// Read otherwise. sink carries one destination slice per extent: the
// caller's buffers (SendRead), or — nil, from Send — slices of one
// allocated response buffer that the response carries.
func (t *CachedTransport) sendVectorRead(iod int, req *wire.ReadBlocks, sink [][]byte, vector bool) (*pendingOp, error) {
	pr := &pendingRead{vector: vector}
	// Extent lengths are attacker-controlled at this boundary (the same
	// hostile-allocation guard the iod and the wire decoders apply):
	// reject anything that could not be framed back in a response before
	// allocating or spanning it.
	total, ok := wire.ValidateExtents(req.Exts)
	if !ok {
		return &pendingOp{ready: pr.response(wire.StatusBadRequest)}, nil
	}
	bs := t.m.buf.BlockSize()
	nblocks := 0
	for _, e := range req.Exts {
		if e.Length > 0 {
			_, count := blockio.BlockRange(e.Offset, e.Length, bs)
			nblocks += int(count)
		}
	}
	op, firstOff := "read", int64(0)
	if vector {
		op = "readv"
	}
	if len(req.Exts) > 0 {
		firstOff = req.Exts[0].Offset
	}
	rt := t.m.traceStart(op, req.File, firstOff, total)
	tenant := t.m.tenantOf(req.File)
	qos, budgetOK := t.m.acquireFetchBudget(tenant, nblocks)
	if !budgetOK {
		rt.finish(fmt.Sprintf("shed overload tenant=%d (%d blocks over budget)", tenant, nblocks))
		return &pendingOp{ready: pr.response(wire.StatusOverload)}, nil
	}
	pr.admit, pr.qos, pr.qosBlocks, pr.trace = t.m.readAdmitMode(req.File), qos, nblocks, rt
	if vector {
		pr.lens = make([]uint32, len(req.Exts))
	}
	if sink == nil {
		pr.result = make([]byte, total)
		sink = [][]byte{pr.result}
		if len(req.Exts) > 1 {
			sink = make([][]byte, len(req.Exts))
			rest := pr.result
			for i, e := range req.Exts {
				sink[i], rest = rest[:e.Length], rest[e.Length:]
			}
		}
	}
	var owned []ownedSpan // spans whose fetch this process owns
	for i, e := range req.Exts {
		if vector {
			// The cache serves every requested byte (missing data reads
			// as zero), so extents complete at full length.
			pr.lens[i] = uint32(e.Length)
		}
		for _, sp := range blockio.Spans(req.File, e.Offset, e.Length, bs) {
			owned = t.classifySpan(iod, sp, sink[i][sp.Pos:sp.Pos+int64(sp.Len)], pr, owned)
		}
	}
	rt.hop("classified: %d blocks, %d joins, %d misses", nblocks, len(pr.waits), len(owned))
	owned = t.probeGlobalCache(iod, owned, pr)
	fs, err := t.m.issueRuns(iod, req.File, pr.admit != admitNever, runsOf(owned))
	if len(fs) > 0 {
		// Guarded: a full hit must not pay the registry lookup.
		t.m.cfg.Registry.Counter("module.read_vector_fetches").Add(int64(len(fs)))
	}
	if err != nil {
		t.m.abortFetches(fs, err)
		pr.releaseBudget()
		rt.finish(fmt.Sprintf("issue error: %v", err))
		return nil, err
	}
	pr.fetches = fs
	if len(pr.fetches) == 0 && len(pr.waits) == 0 {
		// Entire request served from the cache: the response is ready now;
		// libpvfs's receive call will be faked locally.
		pr.releaseBudget()
		t.m.cfg.Registry.Counter("module.read_full_hits").Inc()
		rt.finish("full cache hit")
		return &pendingOp{ready: pr.response(wire.StatusOK)}, nil
	}
	rt.hop("issued %d fetches", len(pr.fetches))
	return &pendingOp{read: pr}, nil
}

// completeRead waits for the pending transfers, installs fetched blocks in
// the cache, and assembles the response (status-only on the SendRead
// path: the caller's buffers already hold every byte). Spans that need a
// fetch of their own — a demand block whose install went stale, a join
// whose image is unusable — are re-fetched through fetchSpan once every
// fetch this request owns has landed, and without joining: the process
// may still hold unlanded claims of requests it sent after this one
// (libpvfs receives an operation's requests in send order), and a join
// of a fetch claimed since then could wait on a process that waits on
// us. Joins made at classification are safe: they wait on claims older
// than every claim the process still holds.
func (t *CachedTransport) completeRead(pr *pendingRead) (wire.Message, error) {
	// The request stops being in flight when this returns, success or not:
	// every fetch has landed or aborted and every join resolved, so the
	// tenant's budget charge is returned on all paths.
	defer pr.releaseBudget()
	var firstErr error
	var redo []spanWait
	for _, f := range pr.fetches {
		stale, err := t.m.landFetch(f, pr.admit)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			pr.trace.hop("fetch iod=%d failed: %v", f.iod, err)
			continue
		}
		redo = append(redo, stale...)
		pr.trace.hop("fetch iod=%d landed (%d runs)", f.iod, len(f.runs))
	}
	for _, w := range pr.waits {
		if !t.m.resolveJoin(w) {
			redo = append(redo, w)
		}
	}
	if len(pr.waits) > 0 {
		pr.trace.hop("resolved %d joins", len(pr.waits))
	}
	for _, w := range redo {
		if err := t.m.fetchSpan(w.iod, w.key, w.off, w.dst, pr.admit, false); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		pr.trace.finish(fmt.Sprintf("error: %v", firstErr))
		return nil, firstErr
	}
	pr.trace.finish("ok")
	return pr.response(wire.StatusOK), nil
}

// resolveJoin waits for a joined fetch and copies its published image
// into the waiter's destination (nil: the waiter wants the block
// resident, not its bytes). It drops the waiter's reference and reports
// false when the image is unusable and the span must be fetched afresh:
// the fetch failed or was dropped, or — for a waiter with a destination —
// the block was written after the image was installed.
func (m *Module) resolveJoin(w spanWait) bool {
	<-w.st.done
	defer w.st.decref()
	if w.st.err != nil || w.st.data == nil {
		return false
	}
	m.cfg.Registry.Counter("module.fetch_joins").Inc()
	if w.st.prefetch {
		m.notePrefetchHit(w.key)
	}
	if w.dst == nil {
		return true
	}
	copy(w.dst, w.st.data[w.off:w.off+len(w.dst)])
	// The published image carries resident bytes only as of the moment the
	// fetch landed; this request may have joined after later writes were
	// acked into the cache. Re-overlay the resident valid bytes so a write
	// that completed before this read began is never answered with the
	// pre-write snapshot. Where the resident bytes do not cover the whole
	// span, the overlay only helps while the newer bytes are resident: if
	// the block's write stamp moved past the published image's (written
	// after the install — and possibly flushed and evicted since), the
	// span is re-fetched against a fresh stamp.
	if !m.buf.OverlaySpan(w.key, w.off, w.dst) && m.buf.WriteStamp(w.key) != w.st.stamp {
		m.cfg.Registry.Counter("module.join_stale_refetches").Inc()
		return false
	}
	return true
}

// --- miss engine ---
//
// Every iod read the module issues for the cache — a demand request's
// owned misses, a readahead window, and fetchSpan's single blocks for
// read-modify-write and re-fetches alike — is claimed in the fetch table
// (claim), grouped into runs (runsOf), put on the wire (issueRuns), and
// landed block by block (landFetch → fillRun). The claims'
// fetchState.prefetch flag selects the speculative rules for readahead
// blocks inside fillRun.

// runsOf groups claimed blocks (ascending by block index) into runs of
// consecutive indices: one extent each of a vectored fetch. A demand
// claim carries its request span and destination; a prefetch claim has
// no destination and contributes no span.
func runsOf(owned []ownedSpan) []fetchRun {
	var runs []fetchRun
	for start := 0; start < len(owned); {
		end := start + 1
		for end < len(owned) && owned[end].sp.Key.Index == owned[end-1].sp.Key.Index+1 {
			end++
		}
		run := fetchRun{firstIdx: owned[start].sp.Key.Index}
		for _, o := range owned[start:end] {
			run.keys = append(run.keys, o.sp.Key)
			run.states = append(run.states, o.st)
			if o.dst != nil {
				run.spans = append(run.spans, tgtSpan{sp: o.sp, dst: o.dst})
			}
		}
		runs = append(runs, run)
		start = end
	}
	return runs
}

// issueRuns puts runs on the wire to one iod: one vectored ReadBlocks
// carrying every run as an extent, split only where a frame cannot carry
// more. Every frame is in flight before any response is awaited. On a
// send error the runs not yet issued are aborted, and the fetches already
// in flight are returned with the error for the caller to settle.
func (m *Module) issueRuns(iod int, file blockio.FileID, track bool, runs []fetchRun) ([]fetch, error) {
	bs := m.buf.BlockSize()
	// Rounding spans up to whole blocks can inflate a fetch far past the
	// original request bytes (sub-block extents each cost a full block),
	// so bound every run — and every vectored batch of runs — by what one
	// response frame can carry, splitting into several round trips when
	// necessary.
	maxBlocks := wire.MaxFrameBlocks(bs)
	runs = splitRuns(runs, maxBlocks)
	var fs []fetch
	for start := 0; start < len(runs); {
		batch := runs[start : start+1]
		blocks := len(runs[start].keys)
		for end := start + 1; end < len(runs) && blocks+len(runs[end].keys) <= maxBlocks; end++ {
			blocks += len(runs[end].keys)
			batch = runs[start : end+1]
		}
		exts := make([]wire.ReadExtent, len(batch))
		for i, run := range batch {
			exts[i] = wire.ReadExtent{
				Offset: run.firstIdx * int64(bs),
				Length: int64(len(run.keys)) * int64(bs),
			}
		}
		ch, err := m.data[iod].Go(&wire.ReadBlocks{
			Client: m.cfg.ClientID,
			File:   file,
			Track:  track,
			Exts:   exts,
		})
		if err != nil {
			// The failing batch AND the not-yet-issued ones: all their
			// fetch-table claims must be released, or later readers of
			// those blocks would wait forever.
			m.abortRuns(runs[start:], err)
			return fs, err
		}
		fs = append(fs, fetch{iod: iod, ch: ch, runs: batch})
		start += len(batch)
	}
	return fs, nil
}

// splitRuns bounds every run at maxBlocks consecutive blocks, splitting
// oversized ones (a sub-block-striped request can round up to far more
// block bytes than it asked for) into several runs that fetch separately.
func splitRuns(runs []fetchRun, maxBlocks int) []fetchRun {
	out := make([]fetchRun, 0, len(runs))
	for _, run := range runs {
		if len(run.keys) <= maxBlocks {
			out = append(out, run)
			continue
		}
		spanAt := 0
		for start := 0; start < len(run.keys); start += maxBlocks {
			end := start + maxBlocks
			if end > len(run.keys) {
				end = len(run.keys)
			}
			sub := fetchRun{
				firstIdx: run.keys[start].Index,
				keys:     run.keys[start:end],
				states:   run.states[start:end],
			}
			lastIdx := run.keys[end-1].Index
			// Spans are ordered by block, so a cursor partitions them.
			spanStart := spanAt
			for spanAt < len(run.spans) && run.spans[spanAt].sp.Key.Index <= lastIdx {
				spanAt++
			}
			sub.spans = run.spans[spanStart:spanAt]
			out = append(out, sub)
		}
	}
	return out
}

// landFetch waits for one fetch's response and fills its runs from it,
// returning the request spans whose blocks went stale in flight (see
// fillRun) for the caller to re-fetch once it holds no unlanded claim.
// A failed or rejected response aborts every run, so each claimed state
// is settled exactly once either way.
func (m *Module) landFetch(f fetch, admit admitMode) ([]spanWait, error) {
	res := <-f.ch
	err := res.Err
	var stale []spanWait
	if err == nil {
		stale, err = m.fillFromResponse(f, res.Msg, admit)
		// The response payload has been copied into the run slabs (or
		// rejected); its leased frame buffer is dead either way.
		res.Release()
	}
	if err != nil {
		m.abortRuns(f.runs, err)
	}
	return stale, err
}

// fillFromResponse installs a fetch's blocks from its ReadBlocksResp (one
// entry per run), publishes them to waiters, and copies the request's
// spans into their destinations. Validation runs over every run before
// any run is filled, so a hostile response is rejected whole rather than
// half-published.
func (m *Module) fillFromResponse(f fetch, msg wire.Message, admit admitMode) ([]spanWait, error) {
	rr, ok := msg.(*wire.ReadBlocksResp)
	if !ok {
		return nil, fmt.Errorf("cachemod: fetch failed: %v", msg.WireType())
	}
	if err := rr.Status.Err(); err != nil {
		return nil, err
	}
	if len(rr.Lens) != len(f.runs) {
		return nil, fmt.Errorf("cachemod: vectored fetch returned %d extents, want %d", len(rr.Lens), len(f.runs))
	}
	bs := m.buf.BlockSize()
	for i, run := range f.runs {
		// Decode guarantees the lengths tile Data, but only the requester
		// knows what was asked for: an overlong length would shift every
		// later run's bytes and poison the shared cache with misattributed
		// data.
		if int(rr.Lens[i]) > len(run.keys)*bs {
			return nil, fmt.Errorf("cachemod: vectored fetch extent %d overlong (%d > %d)",
				i, int(rr.Lens[i]), len(run.keys)*bs)
		}
	}
	var stale []spanWait
	data := rr.Data
	for i, run := range f.runs {
		served := int(rr.Lens[i])
		stale = m.fillRun(f.iod, run, data[:served], admit, stale)
		data = data[served:]
	}
	return stale, nil
}

// fillRun slices one run's bytes into blocks, installs each block in the
// cache (zero-padded: data past what the iod stores reads as zero),
// publishes them to joined waiters, and copies the run's request spans
// into their destinations. data aliases the fetch response's leased frame
// buffer; this is the single copy of the miss path — frame to pooled slab
// — and everything downstream (cache frame, waiters, global-cache push,
// span destinations) reads from the slab, which returns to its pool when
// the last published state's reference drains. A read-around run
// (admitNever: don't-cache hint or streaming bypass) skips the install
// and the global-cache push — the slab serves the request and any
// joiners, then returns to its pool.
//
// The install presents the stamp snapshotted when the block was claimed:
// the image is patched with any newer resident bytes before anyone sees
// it, and if the block was written mid-flight — possibly flushed and
// evicted, leaving nothing resident to patch from — the install is
// refused (OutcomeStale). A stale image is never installed or published:
// its state is dropped, so joiners fetch for themselves, and the run's
// request spans on that block are appended to stale for the owner to
// re-fetch (module.fetch_stale_retries; a prefetch block, which has no
// spans, counts in module.prefetch_stale_drops).
//
// Prefetched blocks (fetchState.prefetch) are speculative and follow two
// more rules: a block the iod served nothing for is dropped, not
// zero-filled — a short answer can also mean the window ran outside the
// data this iod holds, so a demand read decides — and a published block
// gets a readahead mark instead of a global-cache push.
func (m *Module) fillRun(iod int, run fetchRun, data []byte, admit admitMode, stale []spanWait) []spanWait {
	bs := m.buf.BlockSize()
	// One zero-padded slab for the whole run; the published per-block
	// buffers are read-only slices of it.
	slab, mem := m.getSlab(len(run.keys) * bs)
	n := copy(slab, data)
	clear(slab[n:]) // a recycled slab holds its previous tenant's bytes
	for i, key := range run.keys {
		blockData := slab[i*bs : (i+1)*bs]
		st := run.states[i]
		if st.prefetch && i*bs >= n {
			m.dropFetch(key, st)
			continue
		}
		if m.installFetched(key, iod, blockData, admit, st.stamp) == buffer.OutcomeStale {
			if st.prefetch {
				m.cfg.Registry.Counter("module.prefetch_stale_drops").Inc()
			} else {
				m.cfg.Registry.Counter("module.fetch_stale_retries").Inc()
			}
			m.dropFetch(key, st)
			continue
		}
		switch {
		case st.prefetch:
		case admit == admitNever:
			m.buf.NoteBypass(key)
		case m.gcNode != nil && len(run.spans) > 0:
			// Feed the global cache: the block's home node gets a copy
			// (made before Push returns, so the slab's lifetime is not
			// extended by the asynchronous push). A run with no request
			// spans is a read-modify-write fill, whose block is about to
			// be overwritten here: its pre-write image is not pushed.
			m.gcNode.Push(key, iod, blockData)
		}
		m.publishFetched(st, key, blockData, mem)
		if st.prefetch {
			if admit != admitNever {
				m.markPrefetched(key)
			}
			m.cfg.Registry.Counter("module.prefetch_blocks").Inc()
		}
	}
	for _, ts := range run.spans {
		i := int(ts.sp.Key.Index - run.firstIdx)
		if run.states[i].data == nil { // dropped stale: nothing published
			stale = append(stale, spanWait{key: ts.sp.Key, off: ts.sp.Off, dst: ts.dst, iod: iod})
			continue
		}
		copy(ts.dst, slab[i*bs+ts.sp.Off:])
	}
	// Drop the owner's hold on each state now that the spans are copied;
	// joined waiters keep the slab alive until they have copied too.
	for _, st := range run.states {
		st.decref()
	}
	mem.release() // the creator's hold
	return stale
}

// installFetched installs (or, read-around, only patches) one fetched
// whole-block image under the request's admission mode.
func (m *Module) installFetched(key blockio.BlockKey, iod int, data []byte, admit admitMode, stamp uint32) buffer.Outcome {
	if admit == admitNever {
		return m.buf.PatchResident(key, data, stamp)
	}
	return m.buf.InstallFetchedAdmit(key, iod, data, admit == admitMust, stamp)
}

// dropFetch settles a claimed state with no data: the table entry goes
// and its joiners wake to fetch for themselves. The owner's hold is
// dropped by the caller with the rest of its run.
func (m *Module) dropFetch(key blockio.BlockKey, st *fetchState) {
	m.fetchMu.Lock()
	if m.fetches[key] == st {
		delete(m.fetches, key)
	}
	m.fetchMu.Unlock()
	close(st.done)
}

// abortRuns publishes a fetch failure to waiters and clears the table.
// States already settled by fillRun are left untouched; for the rest, the
// owner's reference is dropped with the close.
func (m *Module) abortRuns(runs []fetchRun, err error) {
	for _, run := range runs {
		for i, key := range run.keys {
			st := run.states[i]
			select {
			case <-st.done:
			default:
				st.err = err
				m.dropFetch(key, st)
				st.decref()
			}
		}
	}
}

func (m *Module) abortFetches(fs []fetch, err error) {
	for _, f := range fs {
		// No drain needed: responses demultiplex by tag and the result
		// channel is buffered, so an abandoned fetch cannot stall others.
		m.abortRuns(f.runs, err)
	}
}

// claim registers a fetch of key in the fetch table. When one is already
// in flight (another process's miss or a prefetch) it takes a reference
// on it for a join (joined true) — or, join false, returns a private
// state outside the table, whose fetch no one joins. The write stamp is
// snapshotted before the fetch is registered, and so before any iod or
// peer reads the block on our behalf: a write applied after this point —
// even one flushed and evicted before the fetch lands — moves the stamp
// and makes the install stale.
func (m *Module) claim(key blockio.BlockKey, join bool) (st *fetchState, joined bool) {
	stamp := m.buf.WriteStamp(key)
	m.fetchMu.Lock()
	defer m.fetchMu.Unlock()
	cur := m.fetches[key]
	if cur != nil && join {
		// The data reference must be acquired while the entry is still in
		// the table, so the owner (who removes it before dropping its own
		// reference) can never drain the count under us.
		cur.refs.Add(1)
		return cur, true
	}
	st = newFetchState(false)
	st.stamp = stamp
	if cur == nil {
		m.fetches[key] = st
	}
	return st, false
}

// fetchSpan brings one block span in through the miss engine: it claims
// the block and fetches it as a one-block run (issueRuns → landFetch →
// fillRun) — or, with join set, joins a fetch already in flight for it —
// until an image the block's stamp still vouches for has been copied into
// dst. dst nil (read-modify-write) asks only for the fetch to land: the
// caller retries its merge against the cache. It serves read-modify-write
// (writeSpan, joining: a writer holds no claim) and the spans a request's
// own fetch or join could not (completeRead, not joining).
func (m *Module) fetchSpan(iod int, key blockio.BlockKey, off int, dst []byte, admit admitMode, join bool) error {
	for {
		st, joined := m.claim(key, join)
		if joined {
			if m.resolveJoin(spanWait{key: key, off: off, dst: dst, st: st}) {
				return nil
			}
			continue
		}
		own := []ownedSpan{{sp: blockio.Span{Key: key, Off: off, Len: len(dst)}, dst: dst, st: st}}
		fs, err := m.issueRuns(iod, key.File, admit != admitNever, runsOf(own))
		if err != nil {
			return err // issueRuns aborted the claim
		}
		m.cfg.Registry.Counter("module.sync_fetches").Inc()
		stale, err := m.landFetch(fs[0], admit)
		if err != nil || len(stale) == 0 {
			return err
		}
	}
}

// --- write path ---

// sendWrite performs the write on the cache and fakes the acknowledgment;
// the flusher propagates the data later. A write that cannot get cache
// space blocks (bounded by WriteStall) and finally falls back to writing
// through, which matches the paper's "writes may need to block for
// availability of cache space" behaviour for requests larger than the
// cache.
func (t *CachedTransport) sendWrite(iod int, req *wire.Write) (*pendingOp, error) {
	if !t.m.WriteBehind() {
		ch, err := t.m.data[iod].Go(req)
		if err != nil {
			return nil, err
		}
		return &pendingOp{call: ch}, nil
	}
	if t.m.cachePolicy(req.File) == pvfs.CacheNone {
		// Write-around: a don't-cache file's writes go straight through —
		// buffering them would dirty frames for data the application
		// declared it will not reuse, and the flusher would pay to drain
		// them anyway.
		ch, err := t.m.data[iod].Go(req)
		if err != nil {
			return nil, err
		}
		t.m.cfg.Registry.Counter("module.write_around").Inc()
		return &pendingOp{call: ch}, nil
	}
	rt := t.m.traceStart("write", req.File, req.Offset, int64(len(req.Data)))
	tenant := t.m.tenantOf(req.File)
	if t.m.shedWrite(tenant) {
		// Overload shed: the tenant is over its dirty-frame quota and the
		// flusher made no room within OverloadStall. Shedding happens
		// before any span is buffered, so the whole operation is cleanly
		// re-issuable by the client's retry loop.
		rt.finish(fmt.Sprintf("shed overload tenant=%d (%d dirty)", tenant, t.m.buf.DirtyCountTenant(tenant)))
		return &pendingOp{ready: &wire.WriteAck{Status: wire.StatusOverload}}, nil
	}
	bs := t.m.buf.BlockSize()
	spans := blockio.Spans(req.File, req.Offset, int64(len(req.Data)), bs)
	deadline := time.Now().Add(t.m.cfg.WriteStall)
	for _, sp := range spans {
		src := req.Data[sp.Pos : sp.Pos+int64(sp.Len)]
		if err := t.writeSpan(iod, sp, src, deadline, tenant); err != nil {
			rt.finish(fmt.Sprintf("error: %v", err))
			return nil, err
		}
	}
	// Keep the flusher ahead of demand when the dirty list grows large.
	if t.m.buf.DirtyCount() > t.m.buf.Capacity()/2 {
		t.m.kickFlusher()
	}
	t.m.cfg.Registry.Counter("module.writes_buffered").Inc()
	rt.finish(fmt.Sprintf("buffered %d spans", len(spans)))
	return &pendingOp{ready: &wire.WriteAck{Status: wire.StatusOK}}, nil
}

// writeSpan applies one block span to the cache, handling read-modify-
// write and cache-full conditions. Dirty frames are charged to tenant
// (the per-principal quota and the flusher's weighted scheduling key on
// that attribution).
func (t *CachedTransport) writeSpan(iod int, sp blockio.Span, src []byte, deadline time.Time, tenant uint32) error {
	for {
		switch t.m.buf.WriteSpanTenant(sp.Key, iod, sp.Off, src, true, tenant) {
		case buffer.OutcomeOK:
			return nil
		case buffer.OutcomeNeedFetch:
			// Fetch (or join the fetch of) the whole block, then retry the
			// merge against the installed image. The fetch always admits,
			// even for don't-cache and bypassed files: admission is what
			// makes the merge converge.
			admit := admitDefault
			if t.m.cachePolicy(sp.Key.File) == pvfs.CacheMust {
				admit = admitMust
			}
			if err := t.m.fetchSpan(iod, sp.Key, 0, nil, admit, true); err != nil {
				// Cannot complete the merge: write this span through.
				return t.writeThrough(iod, sp, src)
			}
		case buffer.OutcomeNoSpace:
			t.m.kickHarvester()
			t.m.kickFlusher()
			t.m.cfg.Registry.Counter("module.write_stalls").Inc()
			if !t.m.waitForSpace(deadline) {
				return t.writeThrough(iod, sp, src)
			}
		}
	}
}

// writeThrough sends one span straight to the iod, bypassing the cache.
func (t *CachedTransport) writeThrough(iod int, sp blockio.Span, src []byte) error {
	t.m.cfg.Registry.Counter("module.write_through").Inc()
	res := t.m.data[iod].Call(&wire.Write{
		Client: t.m.cfg.ClientID,
		File:   sp.Key.File,
		Offset: sp.FileOffset(t.m.buf.BlockSize()),
		Data:   src,
	})
	if res.Err != nil {
		return res.Err
	}
	ack, ok := res.Msg.(*wire.WriteAck)
	if !ok {
		return fmt.Errorf("cachemod: unexpected write-through reply %v", res.Msg.WireType())
	}
	return ack.Status.Err()
}

// --- sync-write path ---

// sendSyncWrite propagates the write both to the cache and to the iod; the
// iod invalidates every other cache before acknowledging. The local cache
// copy is updated as clean (the iod already holds these bytes when the ack
// arrives).
//
// The write leaves only once no flush of a block it covers is in flight.
// Such a frame carries a snapshot older than this write and travels on
// the flush port: were the sync write to reach the iod first, the frame
// would land after it, the iod would keep the older bytes, and FlushDone
// would mark the block clean (a sync write does not re-dirty it). A flush
// snapshotted after the cache update below carries the new bytes, so
// overtaking is harmless from then on. The wait is bounded by WriteStall.
func (t *CachedTransport) sendSyncWrite(iod int, req *wire.SyncWrite) (*pendingOp, error) {
	bs := t.m.buf.BlockSize()
	spans := blockio.Spans(req.File, req.Offset, int64(len(req.Data)), bs)
	cached := spans
	if t.m.cachePolicy(req.File) == pvfs.CacheNone {
		cached = nil // write-around: the iod gets the data, the cache does not
	}
	for _, sp := range cached {
		src := req.Data[sp.Pos : sp.Pos+int64(sp.Len)]
		switch t.m.buf.WriteSpan(sp.Key, iod, sp.Off, src, false) {
		case buffer.OutcomeOK:
		case buffer.OutcomeNeedFetch:
			// Merging would leave an unknown gap inside the block. The
			// resident valid bytes are untouched by this write, so they
			// remain correct; simply skip caching the new span rather than
			// fetch on the critical path of a coherent write.
		case buffer.OutcomeNoSpace:
			// Not cacheable right now; the server still gets the data.
		}
	}
	t.m.awaitFlushes(spans)
	ch, err := t.m.data[iod].Go(req)
	if err != nil {
		return nil, err
	}
	t.m.cfg.Registry.Counter("module.sync_writes").Inc()
	return &pendingOp{call: ch}, nil
}

// awaitFlushes waits, for at most WriteStall, until no flush snapshot of
// the spans' blocks is in flight. Every settled flush chunk broadcasts
// signalSpace; the short poll covers a broadcast that lands between a
// check and the wait.
func (m *Module) awaitFlushes(spans []blockio.Span) {
	deadline := time.Now().Add(m.cfg.WriteStall)
	for _, sp := range spans {
		for m.buf.Flushing(sp.Key) && time.Now().Before(deadline) {
			select {
			case <-m.stop:
				return
			default:
			}
			m.waitForSpace(time.Now().Add(5 * time.Millisecond))
		}
	}
}
