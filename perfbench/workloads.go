package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/wire"
)

type opClass int

const (
	opRead opClass = iota
	opScan
	opWrite
	opSyncWrite
	opMeta
	numClasses
)

var classNames = [numClasses]string{"read", "scan", "write", "syncwrite", "meta"}

const (
	kib = 1 << 10
	mib = 1 << 20

	fullCheckEvery = 64                     // one read in this many checks every word
	warmOps        = 64                     // per process, after the file is seeded
	window         = 500 * time.Millisecond // the measured phase splits into windows this long
)

// workload is one input set. Each op of a process is drawn from the
// process's own seeded generator; the program only ever sees the
// generated requests.
type workload struct {
	name     string
	why      string
	spec     rigSpec
	fileSize int64
	nodes    [2]int // node of process 0 and 1
	warmFile bool   // read the whole file through the cache in setup
	zipf     bool   // offsets follow a seeded zipf(1.1) popularity ranking
	op       func(r *run, p *proc) error
}

var workloads = []*workload{
	{
		name:     "shared-hot",
		why:      "two processes on one node share a hot file that fits the node cache: the inter-application hit path",
		fileSize: 8 * mib,
		nodes:    [2]int{0, 0},
		warmFile: true,
		zipf:     true,
		op:       sharedHotOp,
	},
	{
		name:     "cold-scan",
		why:      "a sequential scan and random reads over a file 8x the node cache, over TCP with the global cache: the miss path",
		spec:     rigSpec{tcp: true, gcache: true},
		fileSize: 128 * mib,
		nodes:    [2]int{0, 1},
		op:       coldScanOp,
	},
	{
		name:     "write-mix",
		why:      "streaming buffered writes 4x the node cache, sync writes and cross-node reads: write-behind, flush, coherence",
		fileSize: 128 * mib,
		nodes:    [2]int{0, 1},
		op:       writeMixOp,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// proc is one closed-loop client process.
type proc struct {
	idx  int
	c    *pvfs.Client
	f    *pvfs.File
	rng  *rand.Rand
	zipf *rand.Zipf // popularity rank, for zipf workloads
	buf  []byte
	pt   *procTrace

	half    int64 // first byte of the process's own half of the file
	cursor  int64 // next scan or streaming-write offset
	scratch int   // metadata ops: next scratch file number
	created bool

	reads int64 // read ops, for fullCheckEvery
	lat   [numClasses]Hist
	bytes int64
	ops   int64
	fails int64
	bad   error // first output mismatch

	// The measured phase also records per window, so the gated figures
	// can be taken over windows: a stretch of outside load on a shared
	// machine slows only the windows it covers.
	start time.Time
	win   []windowStats
}

type windowStats struct {
	read, all Hist
	bytes     int64
}

// run is one workload instance: a booted cluster with a seeded file.
type run struct {
	wl    *workload
	seed  uint64
	rig   *rig
	tr    *tracer
	name  string
	id    blockio.FileID
	meta  wire.FileMeta
	perm  []int64 // zipf workloads: popularity rank → block of a half
	vers  *versions
	procs []*proc
}

func (r *run) fileTag() uint64 { return uint64(r.id) }

// setup boots the cluster, creates and seeds the file directly in the
// iods' backends (the mgr learns its size), opens it from both processes
// and warms up.
func setup(wl *workload, seed uint64, tr *tracer) (*run, error) {
	rg, err := bootRig(wl.spec, tr)
	if err != nil {
		return nil, err
	}
	r := &run{wl: wl, seed: seed, rig: rg, tr: tr, name: wl.name + ".dat"}
	for _, step := range []func() error{r.seedFile, r.startProcs, r.warm} {
		if err := step(); err != nil {
			rg.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *run) seedFile() error {
	id, meta, err := r.rig.mgr.Create(r.name, 0, 0, 0)
	if err != nil {
		return err
	}
	r.id, r.meta = id, meta
	blocks := r.wl.fileSize / blockSize
	r.vers = newVersions(blocks)
	// Seed from the end backwards: the mem backend stores each iod's
	// strips at their file offsets, so its first write sizes the store
	// once instead of growing it by doubling.
	chunk := make([]byte, mib)
	for off := r.wl.fileSize - mib; off >= 0; off -= mib {
		for b := int64(0); b < mib/blockSize; b++ {
			fillBlock(chunk[b*blockSize:], r.seed, r.fileTag(), off/blockSize+b, 0)
		}
		pieces, err := pvfs.PiecesFor(id, meta, numIODs, off, mib)
		if err != nil {
			return err
		}
		for i := len(pieces) - 1; i >= 0; i-- {
			pc := pieces[i]
			if err := r.rig.backends[pc.IOD].WriteAt(id, pc.Ext.Offset, chunk[pc.Pos:pc.Pos+pc.Ext.Length]); err != nil {
				return fmt.Errorf("seeding iod %d: %w", pc.IOD, err)
			}
		}
	}
	if err := r.rig.mgr.SetSize(id, r.wl.fileSize); err != nil {
		return err
	}
	if r.wl.zipf {
		perm := rand.New(rand.NewSource(int64(splitmix(r.seed ^ 0x5eed)))).Perm(int(blocks / 2))
		r.perm = make([]int64, len(perm))
		for i, b := range perm {
			r.perm[i] = int64(b)
		}
	}
	return nil
}

func (r *run) startProcs() error {
	for i, node := range r.wl.nodes {
		var pt *procTrace
		if r.tr != nil {
			pt = r.tr.newProc(i)
		}
		c, err := r.rig.newProcess(node, pt)
		if err != nil {
			return err
		}
		f, err := c.Open(r.name)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(splitmix(r.seed ^ uint64(i+1)*golden))))
		p := &proc{idx: i, c: c, f: f, rng: rng, buf: make([]byte, 256*kib), pt: pt,
			half: int64(i) * r.wl.fileSize / 2}
		if r.perm != nil {
			p.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(r.perm)-1))
		}
		r.procs = append(r.procs, p)
	}
	return nil
}

// warm reads the whole file once through the cache when the workload asks
// for it, then runs warmOps ops per process unmeasured (connections
// dialed, pools filled); it resets the processes' statistics after.
func (r *run) warm() error {
	if r.wl.warmFile {
		p := r.procs[0]
		for off := int64(0); off < r.wl.fileSize; off += int64(len(p.buf)) {
			if err := r.read(p, opScan, off, len(p.buf), true); err != nil {
				return fmt.Errorf("warming: %w", err)
			}
		}
	}
	for _, p := range r.procs {
		for i := 0; i < warmOps; i++ {
			if err := r.wl.op(r, p); err != nil {
				return fmt.Errorf("warm-up op: %w", err)
			}
		}
		if p.bad != nil {
			return p.bad
		}
		p.lat = [numClasses]Hist{}
		p.win = nil
		p.bytes, p.ops, p.fails = 0, 0, 0
	}
	return nil
}

// measure runs every process for d and returns the measured wall time.
func (r *run) measure(d time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	ends := make([]time.Time, len(r.procs))
	for i, p := range r.procs {
		p.start = start
		p.win = make([]windowStats, max(d/window, 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i] = r.loop(p, deadline)
		}()
	}
	wg.Wait()
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return last.Sub(start)
}

// loop issues ops back to back until the deadline.
func (r *run) loop(p *proc, deadline time.Time) time.Time {
	for {
		if err := r.wl.op(r, p); err != nil {
			p.fails++
		}
		if now := time.Now(); !now.Before(deadline) {
			return now
		}
	}
}

// timed runs fn as one op of the given class and records it.
func (r *run) timed(p *proc, class opClass, bytes int, fn func() error) error {
	var t0 int64
	if p.pt != nil {
		p.pt.begin()
		t0 = r.tr.now()
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	elapsed := end.Sub(start)
	if p.pt != nil {
		t1 := r.tr.now()
		if class == opMeta {
			p.pt.endMeta(classNames[class], t0, t1)
		} else {
			p.pt.end(classNames[class], t0, t1)
		}
	}
	p.ops++
	if err != nil {
		return err
	}
	p.lat[class].Observe(int64(elapsed))
	p.bytes += int64(bytes)
	if len(p.win) == 0 {
		return nil // warm-up
	}
	w := &p.win[min(int(end.Sub(p.start)/window), len(p.win)-1)]
	w.all.Observe(int64(elapsed))
	if class == opRead {
		w.read.Observe(int64(elapsed))
	}
	w.bytes += int64(bytes)
	return nil
}

// read reads n bytes at off and checks every block it returned. Blocks a
// process reads on its own node are coherent: they must hold at least the
// version their writer finished before the read began. Cross-node reads
// of another process's buffered writes may be stale (plain writes do not
// invalidate), so only the upper bound applies.
func (r *run) read(p *proc, class opClass, off int64, n int, coherent bool) error {
	first := off / blockSize
	nb := int64(n) / blockSize
	var lo [256 * kib / blockSize]uint32 // the largest read is 256 KiB
	for b := int64(0); b < nb && coherent; b++ {
		lo[b] = r.vers.done[first+b].Load()
	}
	buf := p.buf[:n]
	err := r.timed(p, class, n, func() error {
		got, err := p.f.ReadAt(buf, off)
		if err == nil && got != n {
			err = fmt.Errorf("short read: %d of %d bytes at %d", got, n, off)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.reads++
	full := p.reads%fullCheckEvery == 0
	for b := int64(0); b < nb; b++ {
		hi := r.vers.started[first+b].Load()
		if err := checkBlock(buf[b*blockSize:], r.seed, r.fileTag(), first+b, lo[b], hi, full); err != nil && p.bad == nil {
			p.bad = fmt.Errorf("%s at offset %d: %w", classNames[class], off, err)
		}
	}
	return nil
}

// write writes n bytes at off as the next version of each block.
func (r *run) write(p *proc, class opClass, off int64, n int) error {
	first := off / blockSize
	buf := p.buf[:n]
	for b := int64(0); b < int64(n)/blockSize; b++ {
		v := r.vers.started[first+b].Add(1)
		fillBlock(buf[b*blockSize:], r.seed, r.fileTag(), first+b, v)
	}
	err := r.timed(p, class, n, func() error {
		var err error
		if class == opSyncWrite {
			_, err = p.f.SyncWriteAt(buf, off)
		} else {
			_, err = p.f.WriteAt(buf, off)
		}
		return err
	})
	for b := int64(0); b < int64(n)/blockSize; b++ {
		r.vers.done[first+b].Store(r.vers.started[first+b].Load())
	}
	return err
}

// metaOp creates a scratch file, or unlinks the one created last.
func (r *run) metaOp(p *proc) error {
	name := fmt.Sprintf("scratch-%d-%d", p.idx, p.scratch)
	return r.timed(p, opMeta, 0, func() error {
		if p.created {
			p.created = false
			p.scratch++
			return p.c.Unlink(name)
		}
		f, err := p.c.Create(name, pvfs.StripeSpec{})
		if err != nil {
			return err
		}
		p.created = true
		return f.Close()
	})
}

var hotSizes = [3]int{4 * kib, 16 * kib, 64 * kib}

// sharedHotOp: 87% reads of 4/16/64 KiB at zipf(1.1)-popular block
// offsets anywhere in the file, 10% buffered writes of the same sizes into
// the process's own half, 3% metadata calls.
func sharedHotOp(r *run, p *proc) error {
	x := p.rng.Intn(100)
	n := hotSizes[p.rng.Intn(len(hotSizes))]
	nb := int64(n / blockSize)
	halfBlocks := int64(len(r.perm))
	block := r.perm[p.zipf.Uint64()]
	block = min(block, halfBlocks-nb)
	switch {
	case x < 87:
		if p.rng.Intn(2) == 1 {
			block += halfBlocks
		}
		return r.read(p, opRead, block*blockSize, n, true)
	case x < 97:
		return r.write(p, opWrite, p.half+block*blockSize, n)
	default:
		return r.metaOp(p)
	}
}

// coldScanOp: process 0 scans the file in 256 KiB reads, wrapping at the
// end; process 1 reads uniformly random 64 KiB-aligned extents.
func coldScanOp(r *run, p *proc) error {
	if p.idx == 0 {
		off := p.cursor
		p.cursor = (p.cursor + 256*kib) % r.wl.fileSize
		return r.read(p, opScan, off, 256*kib, true)
	}
	off := p.rng.Int63n(r.wl.fileSize/(64*kib)) * 64 * kib
	return r.read(p, opRead, off, 64*kib, true)
}

// writeMixOp: 84% buffered 64 KiB writes streaming through the
// process's own half, 6% 4 KiB sync writes at random blocks of it, 10%
// 64 KiB reads of the other process's half.
func writeMixOp(r *run, p *proc) error {
	half := r.wl.fileSize / 2
	x := p.rng.Intn(100)
	switch {
	case x < 84:
		off := p.half + p.cursor
		p.cursor = (p.cursor + 64*kib) % half
		return r.write(p, opWrite, off, 64*kib)
	case x < 90:
		off := p.half + p.rng.Int63n(half/blockSize)*blockSize
		return r.write(p, opSyncWrite, off, blockSize)
	default:
		other := half - p.half
		off := other + p.rng.Int63n(half/(64*kib))*64*kib
		return r.read(p, opRead, off, 64*kib, false)
	}
}

// verifyImage reads the file back from every iod's backend after the
// cluster closed (each module flushes its dirty blocks on Close) and
// compares each byte with the image the writers produced: every
// acknowledged write must have reached the iods.
func (r *run) verifyImage() error {
	got := make([]byte, mib)
	for off := int64(0); off < r.wl.fileSize; off += mib {
		pieces, err := pvfs.PiecesFor(r.id, r.meta, numIODs, off, mib)
		if err != nil {
			return err
		}
		for _, pc := range pieces {
			dst := got[pc.Pos : pc.Pos+pc.Ext.Length]
			n, err := r.rig.backends[pc.IOD].ReadAt(r.id, pc.Ext.Offset, dst)
			if err != nil {
				return fmt.Errorf("reading back iod %d: %w", pc.IOD, err)
			}
			clear(dst[n:])
		}
		for b := int64(0); b < mib/blockSize; b++ {
			block := off/blockSize + b
			v := r.vers.done[block].Load()
			if err := checkBlock(got[b*blockSize:], r.seed, r.fileTag(), block, v, v, true); err != nil {
				return fmt.Errorf("at the iods after close: %w", err)
			}
		}
	}
	return nil
}

// teardown closes the cluster and, when asked, verifies what the iods
// hold; the memory backends stay readable after Close.
func (r *run) teardown(verify bool) error {
	err := r.rig.close()
	if err == nil && verify {
		err = r.verifyImage()
	}
	r.rig = nil
	runtime.GC()
	return err
}
