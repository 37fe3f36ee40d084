package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// The data every workload writes and reads is a pure function of (seed,
// file, 4 KiB block, version): word k of a block holds
//
//	blockMix(seed, file, block) ^ k·φ ^ version<<40
//
// so any read decodes, word by word, which version of which block it
// returned. A word from another block, another offset within the block,
// another file or a zeroed hole fails to decode; a decoded version outside
// the range the writers allow is a stale or future read.

const (
	blockSize   = 4096
	blockWords  = blockSize / 8
	versionBits = 40
	mixMask     = 1<<versionBits - 1
	golden      = 0x9E3779B97F4A7C15
)

func splitmix(x uint64) uint64 {
	x += golden
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func blockMix(seed, file uint64, block int64) uint64 {
	return splitmix(seed ^ splitmix(file<<32^uint64(block)))
}

// fillBlock writes version v of a block into p (len blockSize).
func fillBlock(p []byte, seed, file uint64, block int64, v uint32) {
	base := blockMix(seed, file, block) ^ uint64(v)<<versionBits
	for k := 0; k < blockWords; k++ {
		binary.LittleEndian.PutUint64(p[k*8:], base^uint64(k)*golden)
	}
}

// checkBlock verifies the words of one block read back into p: all of
// them when full, else the first, middle and last. Each must decode to a
// version in [lo, hi]; words may come from different versions (a read
// racing a write of the same block is not atomic).
func checkBlock(p []byte, seed, file uint64, block int64, lo, hi uint32, full bool) error {
	mix := blockMix(seed, file, block)
	check := func(k int) error {
		x := binary.LittleEndian.Uint64(p[k*8:]) ^ mix ^ uint64(k)*golden
		if x&mixMask != 0 {
			return fmt.Errorf("file %d block %d word %d: not this block's data", file, block, k)
		}
		if v := uint32(x >> versionBits); v < lo || v > hi {
			return fmt.Errorf("file %d block %d word %d: version %d outside [%d, %d]", file, block, k, v, lo, hi)
		}
		return nil
	}
	if full {
		for k := 0; k < blockWords; k++ {
			if err := check(k); err != nil {
				return err
			}
		}
		return nil
	}
	for _, k := range [...]int{0, blockWords / 2, blockWords - 1} {
		if err := check(k); err != nil {
			return err
		}
	}
	return nil
}

// versions tracks, per block of one file, the version its single owner
// has started writing and the version it has finished writing. A reader
// loads done before its read and started after it: every word it gets
// back must come from a version in between.
type versions struct {
	started []atomic.Uint32
	done    []atomic.Uint32
}

func newVersions(blocks int64) *versions {
	return &versions{started: make([]atomic.Uint32, blocks), done: make([]atomic.Uint32, blocks)}
}
