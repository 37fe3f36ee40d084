package main

import (
	"fmt"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they are added, plus a note for
// each one whose value could not be measured on this workload.
type metricSet struct {
	order  []string
	vals   map[string]metric
	absent map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: make(map[string]metric), absent: make(map[string]string)}
}

func (m *metricSet) add(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.order = append(m.order, name)
	}
	m.vals[name] = metric{v, unit}
}

// ratio adds num/den, or 0 with a note when den is 0.
func (m *metricSet) ratio(name string, num, den float64, unit, why string) {
	if den == 0 {
		m.add(name, 0, unit)
		m.absent[name] = why
		return
	}
	m.add(name, num/den, unit)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// layerInputs is everything the traced run measured over its measured
// phase.
type layerInputs struct {
	counters   map[string]int64 // registry diff
	tr         *tracer
	procs      []*proc
	before     procSample
	after      procSample
	elapsed    time.Duration
	userBytes  int64
	ops        int64
	throughput float64 // traced MB/s
	untraced   float64 // untraced MB/s of the same workload and seed
	memmove    float64
	crc        float64
}

// layerMetrics derives the per-layer metrics. The order follows the
// request's path down the stack.
func layerMetrics(in layerInputs) *metricSet {
	m := newMetricSet()
	c := func(name string) float64 { return float64(in.counters[name]) }
	user := float64(in.userBytes)

	var self, cm, mg Hist
	var selfNs, busyNs int64
	for _, p := range in.procs {
		self.Merge(&p.pt.self)
		cm.Merge(&p.pt.cachemod)
		mg.Merge(&p.pt.mgr)
		selfNs += p.pt.selfNs
		busyNs += p.pt.busyNs
	}
	m.add("pvfs.self_s", float64(selfNs)/1e9, "s")
	m.add("pvfs.self_p50_us", us(self.Quantile(0.5)), "us")

	m.add("cachemod.calls", float64(cm.Count()), "count")
	m.add("cachemod.busy_s", float64(busyNs)/1e9, "s")
	m.add("cachemod.p50_us", us(cm.Quantile(0.5)), "us")
	m.add("cachemod.p99_us", us(cm.Quantile(0.99)), "us")

	m.ratio("buffer.hit_ratio", c("cache.hits"), c("cache.hits")+c("cache.misses"), "ratio", "no block lookups")
	m.add("buffer.evictions", c("cache.evictions"), "count")
	m.add("buffer.write_rmw", c("cache.write_rmw"), "count")
	m.add("buffer.insert_nospace", c("cache.insert_nospace"), "count")

	m.add("readahead.blocks", c("module.prefetch_blocks"), "count")
	m.ratio("readahead.useful_ratio", c("module.prefetch_hits"), c("module.prefetch_blocks"), "ratio", "no block was prefetched")
	var readReqs int64
	for _, p := range in.procs {
		readReqs += p.pt.readReqs
	}
	m.ratio("readahead.full_hit_ratio", c("module.read_full_hits"), float64(readReqs), "ratio", "no read request")

	m.add("fetch.vector_fetches", c("module.read_vector_fetches"), "count")
	m.add("fetch.joins", c("module.fetch_joins"), "count")
	m.add("fetch.stale_retries", c("module.fetch_stale_retries"), "count")
	m.ratio("iod.extents_per_vector_read", c("iod.vector_extents"), c("iod.vector_reads"), "count", "no vectored read reached an iod")

	m.ratio("gcache.hit_ratio", c("gcache.get_hits"), c("gcache.get_hits")+c("gcache.get_misses"), "ratio", "global cache off or never asked")
	m.add("gcache.get_misses", c("gcache.get_misses"), "count")
	m.add("gcache.push_dropped", c("gcache.push_dropped"), "count")

	m.add("flusher.frames", c("module.flush_rounds"), "count")
	m.ratio("flusher.blocks_per_frame", c("module.flushed_blocks"), c("module.flush_rounds"), "count", "nothing was flushed")
	m.add("flusher.requeued", c("module.flush_requeued"), "count")
	m.add("flusher.write_stalls", c("module.write_stalls"), "count")
	m.add("flusher.write_through", c("module.write_through"), "count")

	for r := role(0); r < roleOther; r++ {
		m.add("transport."+roleNames[r]+".bytes", float64(in.tr.netBytes[r].Load()), "bytes")
		m.add("transport."+roleNames[r]+".writes", float64(in.tr.netWrites[r].Load()), "count")
	}
	m.ratio("transport.data.bytes_per_user_byte", float64(in.tr.netBytes[roleData].Load()), user, "ratio", "no user bytes")

	m.add("iod.reads", c("iod.reads"), "count")
	m.ratio("iod.read_bytes_per_user_byte", c("iod.read_bytes"), user, "ratio", "no user bytes")
	m.add("iod.flushes", c("iod.flushes"), "count")
	m.add("iod.sync_writes", c("iod.sync_writes"), "count")
	m.add("iod.invalidations", c("iod.invalidations"), "count")

	tr := in.tr
	m.add("storage.write.calls", float64(tr.stWrite.Count()), "count")
	m.add("storage.write.busy_s", float64(tr.stWrite.SumNs())/1e9, "s")
	m.add("storage.write.p50_us", us(tr.stWrite.Quantile(0.5)), "us")
	m.add("storage.write.p99_us", us(tr.stWrite.Quantile(0.99)), "us")
	m.add("storage.read.calls", float64(tr.stRead.Count()), "count")
	m.add("storage.read.busy_s", float64(tr.stRead.SumNs())/1e9, "s")
	m.add("storage.read.p99_us", us(tr.stRead.Quantile(0.99)), "us")
	m.add("storage.sync.calls", float64(tr.stSyncs.Load()), "count")
	m.ratio("storage.bytes_per_user_byte", float64(tr.stWriteBytes.Load()+tr.stReadBytes.Load()), user, "ratio", "no user bytes")
	m.add("process.write_syscalls", float64(in.after.syscw-in.before.syscw), "count")
	m.add("process.wchar_bytes", float64(in.after.wchar-in.before.wchar), "bytes")

	m.add("mgr.calls", float64(mg.Count()), "count")
	m.add("mgr.p50_us", us(mg.Quantile(0.5)), "us")
	m.add("mgr.p99_us", us(mg.Quantile(0.99)), "us")

	a, b := in.before, in.after
	m.add("process.cpu_util", (b.cpu-a.cpu).Seconds()/in.elapsed.Seconds(), "cores")
	m.ratio("process.alloc_bytes_per_op", float64(b.allocBytes-a.allocBytes), float64(in.ops), "bytes", "no ops")
	m.ratio("process.allocs_per_op", float64(b.allocObjs-a.allocObjs), float64(in.ops), "count", "no ops")
	m.add("process.gc_cycles", float64(b.gcCycles-a.gcCycles), "count")
	m.add("process.gc_pause_ms", float64(b.gcPauseNs-a.gcPauseNs)/1e6, "ms")
	m.add("process.sched_latency_p99_us", schedP99(a, b)*1e6, "us")

	m.ratio("trace.overhead_ratio", in.throughput, in.untraced, "ratio", "untraced run moved no bytes")
	m.add("ref.memmove_gbps", in.memmove, "GB/s")
	m.add("ref.crc32_gbps", in.crc, "GB/s")

	for name, v := range m.vals {
		if v.Value == 0 {
			if _, noted := m.absent[name]; !noted {
				m.absent[name] = "zero on this workload"
			}
		}
	}
	return m
}

// absentNotes lists, sorted, why each unmeasured metric is absent.
func (m *metricSet) absentNotes() []string {
	var out []string
	for name, why := range m.absent {
		out = append(out, fmt.Sprintf("%s: %s", name, why))
	}
	sort.Strings(out)
	return out
}
