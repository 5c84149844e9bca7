package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram: buckets 0.5% wide from 1ns
// to about a minute, so percentiles resolve far below a microsecond
// and its memory is fixed before timing starts. Quantiles interpolate
// by rank inside the bucket that holds them.
type hist struct {
	counts []uint32
	n      int64
	sum    time.Duration
}

var histLnBase = math.Log(1.005)

const histBuckets = 5000

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func (h *hist) add(d time.Duration) {
	ns := float64(d)
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log(ns) / histLnBase)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
	h.sum += d
}

func (h *hist) reset() {
	clear(h.counts)
	h.n, h.sum = 0, 0
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantileUs returns the q-quantile in microseconds (0 when empty).
func (h *hist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := math.Exp(float64(i) * histLnBase)
			hi := math.Exp(float64(i+1) * histLnBase)
			return (lo + (hi-lo)*(rank-cum)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	return math.Exp(float64(histBuckets)*histLnBase) / 1e3
}

// meanUs returns the mean in microseconds (0 when empty).
func (h *hist) meanUs() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / 1e3
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB and
// how long the collection paused the caller.
func liveHeapMB() (float64, time.Duration) {
	t := time.Now()
	runtime.GC()
	pause := time.Since(t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6, pause
}

// allocCounter brackets a replay with heap-allocation counters.
type allocCounter struct{ mallocs, bytes uint64 }

func readAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}

func (a allocCounter) since(b allocCounter) allocCounter {
	return allocCounter{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// envStamp describes the machine and build a run measured, so an
// oversubscribed or tmpfs-backed run is never read as something else.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Conns      int    `json:"conns"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	DataDirFS  string `json:"data_dir_fs"`
}

func stamp(conns int, dataDir string) envStamp {
	e := envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Conns:      conns,
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		DataDirFS:  fsType(dataDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			e.Revision = rev
			if dirty {
				e.Revision += "+dirty"
			}
		}
	}
	return e
}

// fsMagic names the statfs magic numbers of the filesystems a data
// directory is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}
