package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord describes the machine a result came from.
type envRecord struct {
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OutFS      string `json:"out_fs"`
}

func readEnv(outDir string) envRecord {
	return envRecord{
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OutFS:      fsType(outDir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// refRates measures two machine references — a 64 KiB memmove and a
// 64 KiB CRC32 — in GB/s, so numbers from different machines can be
// normalised. They are recorded, not gated.
func refRates() (memmove, crc float64) {
	src := make([]byte, 64*kib)
	dst := make([]byte, 64*kib)
	for i := range src {
		src[i] = byte(i * 7)
	}
	rate := func(fn func()) float64 {
		const d = 100 * time.Millisecond
		var n int
		start := time.Now()
		for time.Since(start) < d {
			for i := 0; i < 64; i++ {
				fn()
			}
			n += 64
		}
		return float64(n) * float64(len(src)) / time.Since(start).Seconds() / 1e9
	}
	var sum uint32
	memmove = rate(func() { copy(dst, src) })
	crc = rate(func() { sum += crc32.ChecksumIEEE(src) })
	_ = sum
	return memmove, crc
}

// procSample is the process-wide state diffed over the measured phase.
type procSample struct {
	wall        time.Time
	cpu         time.Duration
	syscw       int64
	wchar       int64
	gcCycles    uint64
	allocBytes  uint64
	allocObjs   uint64
	gcPauseNs   uint64
	schedCounts []uint64
	schedBounds []float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/sched/latencies:seconds"},
}

func sampleProcess() procSample {
	s := procSample{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			k, v, _ := strings.Cut(sc.Text(), ":")
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			switch k {
			case "syscw":
				s.syscw = n
			case "wchar":
				s.wchar = n
			}
		}
	}
	metrics.Read(rtSamples)
	s.gcCycles = rtSamples[0].Value.Uint64()
	s.allocBytes = rtSamples[1].Value.Uint64()
	s.allocObjs = rtSamples[2].Value.Uint64()
	h := rtSamples[3].Value.Float64Histogram()
	s.schedCounts = append([]uint64(nil), h.Counts...)
	s.schedBounds = h.Buckets
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPauseNs = ms.PauseTotalNs
	return s
}

// schedP99 is the 99th percentile of goroutine scheduling latency between
// two samples, as the upper bound of its histogram bucket.
func schedP99(a, b procSample) float64 {
	var total uint64
	diff := make([]uint64, len(b.schedCounts))
	for i := range diff {
		diff[i] = b.schedCounts[i] - a.schedCounts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	var seen uint64
	for i, n := range diff {
		seen += n
		if seen >= rank {
			return b.schedBounds[i+1]
		}
	}
	return b.schedBounds[len(b.schedBounds)-1]
}

func heapLiveBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
