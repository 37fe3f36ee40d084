package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/wire"
)

// fakeTransport implements every optional pvfs.Transport extension and
// records which ones were called.
type fakeTransport struct{ calls map[string]int }

func (f *fakeTransport) Send(int, wire.Message) (pvfs.ReqID, error) { f.calls["Send"]++; return 1, nil }
func (f *fakeTransport) Recv(pvfs.ReqID) (wire.Message, error)      { f.calls["Recv"]++; return nil, nil }
func (f *fakeTransport) Close() error                               { f.calls["Close"]++; return nil }
func (f *fakeTransport) StripeHint(blockio.FileID, wire.FileMeta, int) {
	f.calls["StripeHint"]++
}
func (f *fakeTransport) NoteRead(blockio.FileID, int64, int64) { f.calls["NoteRead"]++ }
func (f *fakeTransport) CachePolicyHint(blockio.FileID, pvfs.CachePolicy) {
	f.calls["CachePolicyHint"]++
}
func (f *fakeTransport) TenantHint(blockio.FileID, uint32, int) { f.calls["TenantHint"]++ }
func (f *fakeTransport) SendRead(int, wire.Message, [][]byte) (pvfs.ReqID, bool, error) {
	f.calls["SendRead"]++
	return 2, true, nil
}

func TestTracedTransportForwardsEveryExtension(t *testing.T) {
	inner := &fakeTransport{calls: map[string]int{}}
	var tt pvfs.Transport = newTracedTransport(inner, newTracer().newProc(0))
	tt.(pvfs.StripeHinter).StripeHint(1, wire.FileMeta{}, 4)
	tt.(pvfs.ReadPatternHinter).NoteRead(1, 0, 4096)
	tt.(pvfs.CachePolicyHinter).CachePolicyHint(1, pvfs.CacheMust)
	tt.(pvfs.TenantHinter).TenantHint(1, 7, 1)
	if _, ok, err := tt.(pvfs.ReadSinker).SendRead(0, &wire.Read{}, nil); !ok || err != nil {
		t.Fatalf("SendRead declined: ok=%v err=%v", ok, err)
	}
	id, _ := tt.Send(0, &wire.Write{})
	tt.Recv(id)
	tt.Close()
	for _, name := range []string{"StripeHint", "NoteRead", "CachePolicyHint", "TenantHint", "SendRead", "Send", "Recv", "Close"} {
		if inner.calls[name] != 1 {
			t.Errorf("%s reached the inner transport %d times, want 1", name, inner.calls[name])
		}
	}
}

// TestTracedTransportSeesCachedTransportExtensions checks that the
// wrapper finds every extension on the cache module's real transport.
func TestTracedTransportSeesCachedTransportExtensions(t *testing.T) {
	rg, err := bootRig(rigSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rg.close()
	tt := newTracedTransport(rg.mods[0].NewTransport(), newTracer().newProc(0))
	defer tt.Close()
	if tt.stripe == nil || tt.pattern == nil || tt.policy == nil || tt.tenant == nil || tt.sinker == nil {
		t.Fatalf("wrapper lost an extension of CachedTransport: %+v", tt)
	}
}

// TestTracedColdScanMatchesUntraced runs cold-scan briefly both ways: the
// prefetcher must act in both (it only prefetches stripe-hinted files), and
// the buffer hit ratio must agree.
func TestTracedColdScanMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two TCP clusters")
	}
	wl := findWorkload("cold-scan")
	hitRatio := func(tr *tracer) (float64, int64) {
		r, err := setup(wl, 3, tr)
		if err != nil {
			t.Fatal(err)
		}
		ph := measurePhase(r, 1)
		if err := r.teardown(true); err != nil {
			t.Fatal(err)
		}
		if ph.mismatch != nil {
			t.Fatal(ph.mismatch)
		}
		c := ph.counters
		return float64(c["cache.hits"]) / float64(c["cache.hits"]+c["cache.misses"]), c["module.prefetch_blocks"]
	}
	plainHit, plainRA := hitRatio(nil)
	tracedHit, tracedRA := hitRatio(newTracer())
	t.Logf("untraced: hit ratio %.3f, %d blocks prefetched; traced: %.3f, %d", plainHit, plainRA, tracedHit, tracedRA)
	if plainRA == 0 || tracedRA == 0 {
		t.Fatalf("readahead.blocks untraced %d, traced %d: want both > 0", plainRA, tracedRA)
	}
	if math.Abs(plainHit-tracedHit) > 0.05 {
		t.Fatalf("buffer.hit_ratio untraced %.3f vs traced %.3f", plainHit, tracedHit)
	}
}

// TestBenchmarkJSONNamesEveryMetric checks that BENCHMARK.json lists
// exactly the metrics the program reports, in both modes, with their
// units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload", w.Name)
		}
	}
	check := func(mode string, want []entry, got *metricSet) {
		if len(want) != len(got.order) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", mode, len(want), len(got.order))
		}
		for _, e := range want {
			v, ok := got.vals[e.Name]
			if !ok {
				t.Errorf("%s: %s is not reported", mode, e.Name)
			} else if v.Unit != e.Unit {
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", mode, e.Name, v.Unit, e.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics(&phase{win: make([]windowStats, 1)}, 1))
	check("per_layer", spec.PerLayer, layerMetrics(layerInputs{tr: newTracer(), elapsed: time.Second}))
}
