package main

import (
	"errors"
	"fmt"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/globalcache"
	"pvfscache/internal/iod"
	"pvfscache/internal/metrics"
	"pvfscache/internal/mgr"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/storage"
	"pvfscache/internal/storage/mem"
	"pvfscache/internal/transport"
)

const (
	numIODs     = 4
	numNodes    = 2
	cacheBlocks = 4096 // 16 MiB of 4 KiB blocks per node
)

// rigSpec is the part of the cluster a workload chooses; every other knob
// keeps the program's default.
type rigSpec struct {
	tcp    bool
	gcache bool
}

// rig is an in-process cluster assembled from the exported constructors,
// so the traced run can wrap the storage backends (cluster.Config has no
// storage hook). Every iod stores its strips in the memory backend. With
// a nil tracer nothing is wrapped.
type rig struct {
	reg      *metrics.Registry
	net      transport.Network
	tr       *tracer
	mgr      *mgr.Server
	iods     []*iod.Server
	backends []storage.Backend // unwrapped, owned here
	mods     []*cachemod.Module
	procs    []*pvfs.Client

	mgrAddr    string
	dataAddrs  []string
	flushAddrs []string
	listeners  []transport.Listener
}

func (r *rig) network(module bool) transport.Network {
	if r.tr == nil {
		return r.net
	}
	return &tapNetwork{inner: r.net, tr: r.tr, module: module}
}

func (r *rig) listen(role role) (transport.Listener, error) {
	addr := ":0"
	if _, ok := r.net.(*transport.TCPNetwork); ok {
		addr = "127.0.0.1:0"
	}
	l, err := r.network(false).Listen(addr)
	if err != nil {
		return nil, err
	}
	r.listeners = append(r.listeners, l)
	if r.tr != nil {
		r.tr.setRole(l.Addr(), role)
	}
	return l, nil
}

func bootRig(spec rigSpec, tr *tracer) (r *rig, err error) {
	r = &rig{reg: metrics.NewRegistry(), net: transport.NewMem(), tr: tr}
	if spec.tcp {
		r.net = transport.NewTCP()
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	r.mgr = mgr.New(numIODs, r.reg)
	ml, err := r.listen(roleMgr)
	if err != nil {
		return nil, fmt.Errorf("mgr listener: %w", err)
	}
	r.mgrAddr = ml.Addr()
	go r.mgr.Serve(ml)
	if tr != nil && spec.gcache {
		tr.mu.Lock()
		tr.peerAddrs = func() map[string]bool {
			peers := make(map[string]bool)
			for _, m := range r.mgr.Members().View().Members {
				peers[m.Addr] = true
			}
			return peers
		}
		tr.mu.Unlock()
	}

	for i := 0; i < numIODs; i++ {
		var be storage.Backend = mem.New()
		r.backends = append(r.backends, be)
		served := be
		if tr != nil {
			served = &tapBackend{Backend: be, tr: tr}
		}
		d := iod.NewWithBackend(i, 0, r.network(false), r.reg, served)
		r.iods = append(r.iods, d)
		dl, err := r.listen(roleData)
		if err != nil {
			return nil, fmt.Errorf("iod %d data listener: %w", i, err)
		}
		fl, err := r.listen(roleFlush)
		if err != nil {
			return nil, fmt.Errorf("iod %d flush listener: %w", i, err)
		}
		r.dataAddrs = append(r.dataAddrs, dl.Addr())
		r.flushAddrs = append(r.flushAddrs, fl.Addr())
		go d.ServeData(dl)
		go d.ServeFlush(fl)
	}

	for node := 0; node < numNodes; node++ {
		mc := cachemod.Config{
			Network:       r.network(true),
			ClientID:      uint32(node + 1),
			IODDataAddrs:  r.dataAddrs,
			IODFlushAddrs: r.flushAddrs,
			Buffer:        buffer.Config{Capacity: cacheBlocks},
			Registry:      r.reg,
		}
		if spec.gcache {
			mc.GlobalCache = &globalcache.Options{SelfID: uint32(node), MgrAddr: r.mgrAddr}
		}
		mod, err := cachemod.New(mc)
		if err != nil {
			return nil, fmt.Errorf("cache module %d: %w", node, err)
		}
		r.mods = append(r.mods, mod)
	}
	return r, nil
}

// newProcess starts one application process on a node: a pvfs.Client over
// the node's shared cache module (wrapped when p is non-nil).
func (r *rig) newProcess(node int, p *procTrace) (*pvfs.Client, error) {
	var t pvfs.Transport = r.mods[node].NewTransport()
	if p != nil {
		t = newTracedTransport(t, p)
	}
	c, err := pvfs.NewClient(pvfs.Config{
		Network:   r.network(false),
		MgrAddr:   r.mgrAddr,
		IODAddrs:  r.dataAddrs,
		ClientID:  uint32(node + 1),
		Transport: t,
	})
	if err != nil {
		return nil, err
	}
	r.procs = append(r.procs, c)
	return c, nil
}

// close drains the caches (a module flushes its dirty blocks on Close),
// then stops the daemons and closes the backends; a memory backend stays
// readable after Close.
func (r *rig) close() error {
	var errs []error
	for _, c := range r.procs {
		errs = append(errs, c.Close())
	}
	for _, m := range r.mods {
		errs = append(errs, m.Close())
	}
	for _, l := range r.listeners {
		if err := l.Close(); !errors.Is(err, transport.ErrClosed) {
			errs = append(errs, err)
		}
	}
	for _, d := range r.iods {
		errs = append(errs, d.Close())
	}
	for _, be := range r.backends {
		errs = append(errs, be.Close())
	}
	return errors.Join(errs...)
}
