// Quickstart: boot a complete in-process cluster (metadata server, four
// I/O daemons, one client node with the cache module), write a striped
// file through the cache, read it back twice, and show the effect of the
// per-node cache: the second read never touches the network.
//
//	go run ./examples/quickstart
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

	// Boot: 4 iods, 1 client node, caching enabled — the paper's
	// "caching version" in miniature.
	c, err := cluster.Start(cluster.Config{
		IODs:        4,
		ClientNodes: 1,
		Caching:     true,
		Module:      cachemod.Config{FlushPeriod: 100 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// One application process on node 0.
	proc, err := c.NewProcess(0)
	if err != nil {
		log.Fatal(err)
	}
	defer proc.Close()

	// Create a file striped over all four iods in 64 KB strips.
	f, err := proc.Create("demo/data.bin", pvfs.StripeSpec{SSize: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	payload := bytes.Repeat([]byte("pvfs-cache!"), 20000) // ~220 KB
	if _, err := f.WriteAt(payload, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d bytes striped over %d iods\n", len(payload), len(c.IODs))

	// The write was absorbed by the cache module (write-behind); the
	// flusher is propagating it to the iods in the background.
	stats := c.Module(0).Buffer().Stats()
	fmt.Printf("cache after write: %d resident blocks, %d dirty\n", stats.Resident, stats.Dirty)

	// Read it back. The first read is served from the cache too — the
	// write left the blocks resident.
	before := c.Reg.Snapshot()
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("read returned wrong data")
	}
	diff := c.Reg.Snapshot().Diff(before)
	fmt.Printf("read-back: %d cache hits, %d iod reads (0 = fully cache-served)\n",
		diff["cache.hits"], diff["iod.reads"])

	// Force everything out to the daemons and verify durability.
	if err := c.FlushAll(); err != nil {
		log.Fatal(err)
	}
	var stored int64
	for _, d := range c.IODs {
		sz, _ := d.Store().Size(f.ID())
		stored += sz
	}
	fmt.Printf("after flush: iods hold data for file %d (sizes sum across strips)\n", f.ID())
	_ = stored

	// A second process on the same node shares the cache: its read is an
	// inter-application hit, the paper's headline mechanism.
	proc2, err := c.NewProcess(0)
	if err != nil {
		log.Fatal(err)
	}
	defer proc2.Close()
	f2, err := proc2.Open("demo/data.bin")
	if err != nil {
		log.Fatal(err)
	}
	before = c.Reg.Snapshot()
	if _, err := f2.ReadAt(got, 0); err != nil {
		log.Fatal(err)
	}
	diff = c.Reg.Snapshot().Diff(before)
	fmt.Printf("second process read: %d cache hits, %d iod reads — data shared across processes\n",
		diff["cache.hits"], diff["iod.reads"])
}
