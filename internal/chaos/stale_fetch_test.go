package chaos

import (
	"testing"

	"pvfscache/internal/testseed"
	"pvfscache/internal/workload"
)

// TestStaleFetchStorm is the regression test for the stale-fetch-install
// race: a demand fetch issued while a block is absent can complete after
// a newer write to that block was applied, flushed, and evicted entirely
// within the fetch's flight — at which point the install's "resident
// bytes win" patch has nothing left to patch from, and the fetched
// (older) image would silently shadow the write. The write-stamp check
// in buffer.InstallFetchedAdmit rejects such installs (OutcomeStale) and the
// module re-reads.
//
// The race needs real pressure to open: enough concurrent clients that
// fetch goroutines get descheduled across a full flush+evict cycle.
// 512 zipfian clients against a 4-node cluster reproduced it in roughly
// one run in three before the fix (the oracle reported reads returning
// an overwritten image); with the fix the stale installs are detected —
// typically dozens per run, visible in cache.stale_installs /
// module.fetch_stale_retries — retried, and the oracle stays quiet.
// No fault injection: the race is native to the fetch path.
func TestStaleFetchStorm(t *testing.T) {
	res, err := Run(RunConfig{
		Scenario: "zipfian",
		Fault:    "none",
		Seed:     testseed.Base(t),
		Params: workload.Params{
			Clients: 512, Nodes: 4, OpsPerClient: 12,
			FileSize: 4 << 20, MaxIO: 4 << 10,
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("storm failed: %v", err)
	}
	t.Logf("storm: %d ops, %d errors", res.Ops, res.OpErrors)
}
