// Command perfbench is the repository's benchmark. It boots an in-process
// cluster (4 iods, 2 client nodes, every knob at its default except a
// 16 MiB node cache), drives it from two closed-loop client processes
// with one of three seeded workloads, checks the data it reads back and
// what the iods hold once the cluster closes, and prints each metric
// with its unit; the last line of its output is one JSON object. With
// -trace 1 it runs the workload twice, untraced and then with wrappers on
// four seams, and prints per-layer metrics instead.
//
//	go run . -workload shared-hot -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// result is the JSON object printed as the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    uint64
	seconds int
	outDir  string
}

func main() {
	name := flag.String("workload", "all", "workload to run: shared-hot, cold-scan, write-mix or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the traced run's span files")
	flag.Parse()

	wls := workloads
	if *name != "all" {
		wl := findWorkload(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		wls = []*workload{wl}
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opts := options{seed: *seed, seconds: *seconds, outDir: *out}
	ok := true
	for _, wl := range wls {
		var res result
		var err error
		if *trace == 1 {
			res, err = tracedRun(wl, opts)
		} else {
			res, err = untracedRun(wl, opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// phase is what one measured phase of a workload produced.
type phase struct {
	elapsed  time.Duration
	lat      [numClasses]Hist
	all      Hist
	win      []windowStats
	bytes    int64
	ops      int64
	fails    int64
	mismatch error
	heapLive uint64
	before   procSample
	after    procSample
	counters map[string]int64
}

func (ph *phase) throughput() float64 { return float64(ph.bytes) / ph.elapsed.Seconds() / 1e6 }

// Gated figures are deciles over the measured phase's windows, taken on
// the better side: the upper decile of window throughput and the lower
// decile of window latency percentiles. On a shared machine outside load
// comes in stretches of seconds that halve throughput while they last; a
// slower program slows every window, the calm ones included, so the
// better decile still moves with the program while staying steady.
const (
	fastDecile = 0.9
	calmDecile = 0.1
)

// windowQuantile is the q-quantile over the windows of f.
func (ph *phase) windowQuantile(q float64, f func(w *windowStats) float64) float64 {
	v := make([]float64, len(ph.win))
	for i := range ph.win {
		v[i] = f(&ph.win[i])
	}
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

// measurePhase runs the measured phase of a set-up workload and gathers
// its statistics; the cluster stays up.
func measurePhase(r *run, seconds int) *phase {
	ph := &phase{}
	snap := r.rig.reg.Snapshot()
	if r.tr != nil {
		r.tr.armed.Store(true)
	}
	ph.before = sampleProcess()
	ph.elapsed = r.measure(time.Duration(seconds) * time.Second)
	ph.after = sampleProcess()
	if r.tr != nil {
		r.tr.armed.Store(false)
	}
	ph.counters = r.rig.reg.Snapshot().Diff(snap)
	for _, p := range r.procs {
		for c := range p.lat {
			ph.lat[c].Merge(&p.lat[c])
			ph.all.Merge(&p.lat[c])
		}
		if ph.win == nil {
			ph.win = make([]windowStats, len(p.win))
		}
		for w := range p.win {
			ph.win[w].read.Merge(&p.win[w].read)
			ph.win[w].all.Merge(&p.win[w].all)
			ph.win[w].bytes += p.win[w].bytes
		}
		ph.bytes += p.bytes
		ph.ops += p.ops
		ph.fails += p.fails
		if ph.mismatch == nil {
			ph.mismatch = p.bad
		}
	}
	ph.heapLive = heapLiveBytes()
	return ph
}

// setupRuns is how many set-ups an untraced run times; it reports their
// median, which a single slow set-up does not move.
const setupRuns = 9

// untracedRun sets the workload up setupRuns times (timing each),
// measures on the last set-up, then closes the cluster and checks what it
// left behind.
func untracedRun(wl *workload, opts options) (result, error) {
	var setupTimes []float64
	var r *run
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			if err := r.teardown(false); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		var err error
		if r, err = setup(wl, opts.seed, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	env := readEnv(opts.outDir)
	memmove, crc := refRates()
	ph := measurePhase(r, opts.seconds)
	closeErr := r.teardown(true)

	slices.Sort(setupTimes)
	m := endToEndMetrics(ph, setupTimes[len(setupTimes)/2])
	winSecs := window.Seconds()

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=0\n", wl.name, opts.seed, opts.seconds)
	fmt.Printf("# why: %s\n", wl.why)
	envLine, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envLine)
	fmt.Printf("# ref.memmove_gbps=%.3f ref.crc32_gbps=%.3f (recorded, not gated)\n", memmove, crc)
	fmt.Printf("# gated: median set-up; over %d windows of %.1f s, the fast decile of throughput and the calm decile of latencies\n", len(ph.win), winSecs)
	fmt.Printf("%-22s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	fmt.Printf("%-22s %14.4f %-6s %d set-ups\n", "setup_s", m.vals["setup_s"].Value, "s", len(setupTimes))
	fmt.Printf("%-22s %14.2f %-6s 1 forced GC\n", "heap_live_mb", float64(ph.heapLive)/1e6, "MB")
	fmt.Printf("%-22s %14.2f %-6s %d ops\n", "throughput_mbps", m.vals["throughput_mbps"].Value, "MB/s", ph.ops)
	fmt.Printf("%-22s %14.2f %-6s %d\n", "read_p50_us", m.vals["read_p50_us"].Value, "us", ph.lat[opRead].Count())
	fmt.Printf("%-22s %14.2f %-6s %d\n", "op_p50_us", m.vals["op_p50_us"].Value, "us", ph.all.Count())
	fmt.Printf("# whole measured phase (%.3f s), per op class\n", ph.elapsed.Seconds())
	fmt.Printf("%-22s %14.2f %-6s %d ops\n", "throughput_mbps", ph.throughput(), "MB/s", ph.ops)
	fmt.Printf("%-22s %14.6f %-6s %d failed of %d\n", "failed_ratio", float64(ph.fails)/float64(max(ph.ops, 1)), "ratio", ph.fails, ph.ops)
	for c := opClass(0); c < numClasses; c++ {
		h := &ph.lat[c]
		if h.Count() == 0 {
			continue
		}
		for _, q := range []struct {
			s string
			q float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			fmt.Printf("%-22s %14.2f %-6s %d\n", classNames[c]+"_"+q.s+"_us", us(h.Quantile(q.q)), "us", h.Count())
		}
	}
	fmt.Print("# throughput_mbps per window:")
	for i := range ph.win {
		fmt.Printf(" %.0f", float64(ph.win[i].bytes)/winSecs/1e6)
	}
	fmt.Println()
	correct := reportChecks(ph, closeErr)
	return result{Correct: correct, Attempted: ph.ops, Failed: ph.fails, Metrics: m.vals}, nil
}

// endToEndMetrics derives the gated metrics of an untraced run.
func endToEndMetrics(ph *phase, setup float64) *metricSet {
	m := newMetricSet()
	m.add("setup_s", setup, "s")
	m.add("throughput_mbps", ph.windowQuantile(fastDecile, func(w *windowStats) float64 {
		return float64(w.bytes) / window.Seconds() / 1e6
	}), "MB/s")
	m.add("heap_live_mb", float64(ph.heapLive)/1e6, "MB")
	m.add("read_p50_us", ph.windowQuantile(calmDecile, func(w *windowStats) float64 { return us(w.read.Quantile(0.5)) }), "us")
	m.add("op_p50_us", ph.windowQuantile(calmDecile, func(w *windowStats) float64 { return us(w.all.Quantile(0.5)) }), "us")
	return m
}

// reportChecks prints the outcome of the output checks.
func reportChecks(ph *phase, closeErr error) bool {
	ok := true
	if ph.mismatch != nil {
		fmt.Printf("# CHECK FAILED: read back wrong data: %v\n", ph.mismatch)
		ok = false
	}
	if closeErr != nil {
		fmt.Printf("# CHECK FAILED: closing the cluster: %v\n", closeErr)
		ok = false
	}
	if ph.ops == 0 {
		fmt.Println("# CHECK FAILED: no op completed")
		ok = false
	}
	if ok {
		fmt.Println("# checks passed: every read decoded to an allowed version, and the iods held every acknowledged write after close")
	}
	return ok
}

// tracedRun measures the workload untraced (for the tracing overhead),
// then again with every seam wrapped, and reports per-layer metrics.
func tracedRun(wl *workload, opts options) (result, error) {
	r, err := setup(wl, opts.seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("untraced set-up: %w", err)
	}
	base := measurePhase(r, opts.seconds)
	baseErr := r.teardown(true)

	tr := newTracer()
	if r, err = setup(wl, opts.seed, tr); err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	ph := measurePhase(r, opts.seconds)
	closeErr := errors.Join(baseErr, r.teardown(true))
	memmove, crc := refRates()

	m := layerMetrics(layerInputs{
		counters:   ph.counters,
		tr:         tr,
		procs:      r.procs,
		before:     ph.before,
		after:      ph.after,
		elapsed:    ph.elapsed,
		userBytes:  ph.bytes,
		ops:        ph.ops,
		throughput: ph.throughput(),
		untraced:   base.throughput(),
		memmove:    memmove,
		crc:        crc,
	})
	spanPath := filepath.Join(opts.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, opts.seed))
	spanErr := tr.writeSpans(spanPath)

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=1\n", wl.name, opts.seed, opts.seconds)
	envLine, _ := json.Marshal(readEnv(opts.outDir))
	fmt.Printf("# env %s\n", envLine)
	fmt.Printf("# untraced %.2f MB/s, traced %.2f MB/s over %d ops\n", base.throughput(), ph.throughput(), ph.ops)
	if spanErr != nil {
		fmt.Printf("# spans not written: %v\n", spanErr)
	} else {
		fmt.Printf("# spans: %s\n", spanPath)
	}
	fmt.Printf("%-40s %16s %s\n", "metric", "value", "unit")
	for _, name := range m.order {
		v := m.vals[name]
		fmt.Printf("%-40s %16.4f %s\n", name, v.Value, v.Unit)
	}
	for _, note := range m.absentNotes() {
		fmt.Printf("# absent: %s\n", note)
	}
	correct := reportChecks(base, nil) && reportChecks(ph, closeErr)
	return result{Correct: correct, Attempted: ph.ops, Failed: ph.fails, Metrics: m.vals}, nil
}
