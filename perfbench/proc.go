package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSnap is the process-wide counters a phase is measured against.
type procSnap struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	cpu                 time.Duration // user + system
}

func takeProcSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, cpu: cpu}
}

// procDelta is the process cost of one phase.
type procDelta struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	cpu                 time.Duration
}

func (a procSnap) to(b procSnap) procDelta {
	return procDelta{
		mallocs: b.mallocs - a.mallocs, allocBytes: b.allocBytes - a.allocBytes,
		gcCycles: b.gcCycles - a.gcCycles, cpu: b.cpu - a.cpu,
	}
}

// heapSampler tracks the peak live heap while it runs: the bytes the
// last completed GC cycle marked live, read from runtime/metrics (no
// stop-the-world) every couple of milliseconds.  Garbage awaiting the
// next cycle is not counted, so the figure is what the program holds,
// not when the collector happened to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				h.peak = max(h.peak, sample[0].Value.Uint64())
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler, waits for it, and returns the peak.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// envRecord is stored with every result: what a number was measured on.
type envRecord struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	JournalFS  string `json:"journal_fs"`
}

func newEnvRecord(seed int64, journalDir string) envRecord {
	fs, _ := fsType(journalDir)
	return envRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Seed: seed, JournalFS: fs,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Filesystem magic numbers from statfs(2) for the types worth naming.
var fsMagic = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
	0xF2F52010: "f2fs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", err
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name, nil
	}
	return "unknown", nil
}
