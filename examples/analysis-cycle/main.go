// Analysis cycle: the paper's Figure 1 motivates the work with a
// computational-science pipeline — a mesh generator, a solver, and a
// visualization stage — running as separate applications that share
// datasets on disk. This example runs all three stages as separate PVFS
// client processes on one cluster node and shows how the shared cache
// module turns the inter-application hand-offs into memory-speed hits.
//
//	go run ./examples/analysis-cycle
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/cluster"
	"pvfscache/internal/pvfs"
)

const (
	meshPoints = 16384
	meshFile   = "cycle/mesh.bin"
	fieldFile  = "cycle/field.bin"
)

func main() {
	log.SetFlags(0)
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

	fmt.Println("=== stage 1: mesh generator ===")
	generator(c)
	report(c, "generator wrote the mesh")

	fmt.Println("=== stage 2: solver ===")
	before := c.Reg.Snapshot()
	solver(c)
	diff := c.Reg.Snapshot().Diff(before)
	fmt.Printf("solver read the mesh with %d cache hits and %d iod reads\n",
		diff["cache.hits"], diff["iod.reads"])
	report(c, "solver wrote the field")

	fmt.Println("=== stage 3: visualizer ===")
	before = c.Reg.Snapshot()
	checksum := visualizer(c)
	diff = c.Reg.Snapshot().Diff(before)
	fmt.Printf("visualizer consumed the field with %d cache hits and %d iod reads\n",
		diff["cache.hits"], diff["iod.reads"])
	fmt.Printf("field checksum: %.4f\n", checksum)
}

// generator is application 1: it produces a mesh of float64 coordinates.
func generator(c *cluster.Cluster) {
	proc, err := c.NewProcess(0)
	if err != nil {
		log.Fatal(err)
	}
	defer proc.Close()
	f, err := proc.Create(meshFile, pvfs.StripeSpec{})
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, meshPoints*8)
	for i := 0; i < meshPoints; i++ {
		x := float64(i) / meshPoints * 2 * math.Pi
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		log.Fatal(err)
	}
}

// solver is application 2: it reads the mesh (hitting the node cache the
// generator populated) and writes a derived field.
func solver(c *cluster.Cluster) {
	proc, err := c.NewProcess(0)
	if err != nil {
		log.Fatal(err)
	}
	defer proc.Close()
	mesh, err := proc.Open(meshFile)
	if err != nil {
		log.Fatal(err)
	}
	in := make([]byte, meshPoints*8)
	if _, err := mesh.ReadAt(in, 0); err != nil {
		log.Fatal(err)
	}
	out := make([]byte, meshPoints*8)
	for i := 0; i < meshPoints; i++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(in[i*8:]))
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(math.Sin(x)))
	}
	field, err := proc.Create(fieldFile, pvfs.StripeSpec{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := field.WriteAt(out, 0); err != nil {
		log.Fatal(err)
	}
}

// visualizer is application 3: it consumes the solver's output, again
// straight from the shared cache.
func visualizer(c *cluster.Cluster) float64 {
	proc, err := c.NewProcess(0)
	if err != nil {
		log.Fatal(err)
	}
	defer proc.Close()
	field, err := proc.Open(fieldFile)
	if err != nil {
		log.Fatal(err)
	}
	in := make([]byte, meshPoints*8)
	if _, err := field.ReadAt(in, 0); err != nil {
		log.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < meshPoints; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(in[i*8:]))
		sum += v * v
	}
	return sum / meshPoints
}

func report(c *cluster.Cluster, what string) {
	st := c.Module(0).Buffer().Stats()
	fmt.Printf("%s: cache holds %d blocks (%d dirty)\n", what, st.Resident, st.Dirty)
}
