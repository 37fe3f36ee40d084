// Coherence: the paper's default read/write path maintains no coherence
// between node caches — a read simply returns whatever version it finds.
// For applications that need it, the system provides sync-write, which
// propagates the write to the iod and invalidates every other node cache
// holding the touched blocks before returning.
//
// This example demonstrates both behaviours on a live two-node cluster:
// a stale read after a plain write, then a coherent read after a
// sync-write.
//
//	go run ./examples/coherence
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/cluster"
	"pvfscache/internal/pvfs"
)

func main() {
	log.SetFlags(0)
	c, err := cluster.Start(cluster.Config{
		IODs:        2,
		ClientNodes: 2,
		Caching:     true,
		Module:      cachemod.Config{FlushPeriod: 50 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// A writer on node 0 and a reader on node 1.
	writer, err := c.NewProcess(0)
	if err != nil {
		log.Fatal(err)
	}
	defer writer.Close()
	reader, err := c.NewProcess(1)
	if err != nil {
		log.Fatal(err)
	}
	defer reader.Close()

	wf, err := writer.Create("coh/config.bin", pvfs.StripeSpec{PCount: 1})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := wf.WriteAt(bytes.Repeat([]byte{'A'}, 8192), 0); err != nil {
		log.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		log.Fatal(err)
	}

	rf, err := reader.Open("coh/config.bin")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 8192)
	must(rf.ReadAt(buf, 0))
	fmt.Printf("node 1 initial read:            %c (cached)\n", buf[0])

	// Plain write: node 1's cached copy is NOT invalidated — the default
	// mechanism trades coherence for speed, as most HPC workloads are
	// read-shared.
	if _, err := wf.WriteAt(bytes.Repeat([]byte{'B'}, 8192), 0); err != nil {
		log.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		log.Fatal(err)
	}
	must(rf.ReadAt(buf, 0))
	fmt.Printf("node 1 after plain write of B:  %c (stale by design)\n", buf[0])

	// Sync-write: the iod invalidates node 1's copy before acknowledging,
	// so the next read fetches the new version.
	if _, err := wf.SyncWriteAt(bytes.Repeat([]byte{'C'}, 8192), 0); err != nil {
		log.Fatal(err)
	}
	must(rf.ReadAt(buf, 0))
	fmt.Printf("node 1 after sync-write of C:   %c (invalidated and re-fetched)\n", buf[0])

	snap := c.Reg.Snapshot()
	fmt.Printf("\niod invalidations delivered: %d; cache invalidations received: %d\n",
		snap.Counters["iod.invalidations"], snap.Counters["cache.invalidations"])
}

func must(n int, err error) {
	if err != nil {
		log.Fatal(err)
	}
}
