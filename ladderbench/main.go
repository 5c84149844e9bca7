// Command ladderbench is the repository's benchmark: four seeded
// workloads over one ladder of layers, from backend route search up to
// a write-ahead log with a semi-synchronous standby.
//
//	bash ladderbench/run.sh --workload unicast-rpc --seed 1 --seconds 10 --trace 0
//
// The untraced run (--trace 0) drives the workload's op stream at its
// top entry point for --seconds and reports the end-to-end metrics.
// The traced run (--trace 1) replays the first ops of the same stream
// at every rung of the ladder (backend, switchd, http, client, durable,
// cluster), checks every rung reproduces the same per-op outcomes, and
// reports per-layer metrics: a layer's self time is the difference of
// adjacent rungs' mean latencies, so the self times sum to the top
// rung's wall time. Spans (one per op per rung, named <layer>.<op>)
// are written to <dir>/spans at the end.
//
// Load is a closed loop from this process: each connection waits for a
// reply before sending its next request. Every line but the last is
// for people; the last line is one JSON object with the keys correct,
// attempted, failed and metrics. A failed correctness check prints
// correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one benchmark input: a stream shape, a fabric, and the
// rung the untraced run drives.
type workload struct {
	name    string
	why     string
	spec    StreamSpec
	backend string
	m       int    // middle modules, 0 = the backend's sufficient bound
	top     string // rung the untraced run drives
	warm    int    // untimed ops per connection before timing starts
	trace   int    // ops the traced run replays at every rung
	single  bool   // one connection regardless of nproc
}

var unicastSpec = StreamSpec{N: 64, K: 2, R: 8, Unicast: true}

var workloads = []*workload{
	{
		name: "unicast-rpc",
		why:  "connect/read/disconnect over loopback TCP at N=64: the serving stack dominates and route search is small",
		spec: unicastSpec, backend: "msw", top: "client", warm: 300, trace: 1200,
	},
	{
		name:    "multicast-bound",
		why:     "N=1024 multicast at the Theorem 1 bound, fanout 1..32, ~60% of output slots busy: route search dominates, block_rate must be 0",
		spec:    StreamSpec{N: 1024, K: 4, R: 32, MaxFanout: 32, Busy: 0.6, BranchShare: 0.3, BranchMax: 4, ReadShare: 0.1},
		backend: "msw", top: "client", warm: 400, trace: 1200,
	},
	{
		name: "durable-replicated",
		why:  "the unicast-rpc stream with a WAL on disk and a semi-sync standby: group commit and replication dominate mutations",
		spec: unicastSpec, backend: "msw", top: "cluster", warm: 30, trace: 600,
	},
	{
		name:    "blocking-sweep",
		why:     "backend alone below the bound (N=256 m=12, ~6% of offers block): the full middle scan and block reports run",
		spec:    StreamSpec{N: 256, K: 4, R: 16, MaxFanout: 16, Busy: 0.7, BranchShare: 0.3, BranchMax: 4, ReadShare: 0.1},
		backend: "msw", m: 12, top: "backend", warm: 400, trace: 1500, single: true,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// conns is the closed-loop connection count: one per two CPUs, each on
// its own fabric plane (wdmserve's default is 4 planes).
func (w *workload) conns() int {
	if w.single {
		return 1
	}
	c := runtime.NumCPU() / 2
	if c < 1 {
		c = 1
	}
	if c > 4 {
		c = 4
	}
	return c
}

// streamSeed derives connection i's stream seed from the run seed.
func streamSeed(seed int64, conn int) int64 { return seed*1_000_003 + int64(conn) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and verdict.
type report struct {
	metrics   map[string]metric
	order     []string
	attempted int64
	failed    int64
	problems  []string
	// json lists the metrics the final JSON line carries; the rest are
	// printed only (they do not apply to every workload).
	json map[string]bool
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, json: map[string]bool{}}
}

func (r *report) set(name string, v float64, unit string, inJSON bool) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{v, unit}
	r.json[name] = inJSON
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "unicast-rpc", "workload name")
	seed := flag.Int64("seed", 1, "stream seed")
	seconds := flag.Int("seconds", 10, "measured seconds of the untraced run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	dir := flag.String("dir", ".bench_build", "directory for data directories and span files")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladderbench:", err)
		os.Exit(2)
	}
	dataDir, err := filepath.Abs(filepath.Join(*dir, "data"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladderbench:", err)
		os.Exit(2)
	}
	env := stamp(w.conns(), dataDir)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	fmt.Printf("workload %s seed %d: %s; stream %s; backend %s m=%d\n", w.name, *seed, w.why, w.spec, w.backend, w.m)

	var rep *report
	if *trace == 1 {
		rep = runTraced(w, *seed, dataDir, filepath.Join(*dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)))
	} else {
		rep = runE2E(w, *seed, time.Duration(*seconds)*time.Second, dataDir, env.Conns)
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL", p)
	}
	out := map[string]metric{}
	for _, n := range rep.order {
		m := rep.metrics[n]
		fmt.Printf("metric %-32s %14.4f %s\n", n, m.Value, m.Unit)
		if rep.json[n] {
			out[n] = m
		}
	}
	correct := len(rep.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladderbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// Set-up is sampled for setupBudget before the measured window and
// again after it, at least minSetups times each, and reported as the
// median: a sub-millisecond set-up then reads the host over the whole
// run rather than at one moment.
const (
	minSetups   = 5
	setupBudget = time.Second
)

// setupTimes builds and tears down the workload's top rung repeatedly
// for setupBudget and returns the set-up times in seconds.
func setupTimes(w *workload, conns int, dataDir string) ([]float64, error) {
	var times []float64
	for began := time.Now(); len(times) < minSetups || time.Since(began) < setupBudget; {
		t := time.Now()
		rg, err := buildRung(w, w.top, conns, dataDir, false)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
		if err := rg.close(); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// Throughput, CPU per op and the p50 latencies are sampled over windows
// of one second (each holds one metrics-history scrape), and the
// connect tail over blocks of tailBlock consecutive connects (so p99
// has ten samples beyond it). The run reports the median window and
// the median block:
// a burst of contention from outside the process moves a median far
// less than it moves a whole-run mean or a whole-run p99. The p99 is
// printed; the JSON carries p90, which repeats across runs on a shared
// host where p99 does not.
const (
	window    = time.Second
	tailBlock = 1000
)

// runE2E drives the workload at its top rung for d and reports the
// end-to-end metrics.
func runE2E(w *workload, seed int64, d time.Duration, dataDir string, conns int) *report {
	rep := newReport()
	setups, err := setupTimes(w, conns, dataDir)
	if err != nil {
		rep.fail("set-up: %v", err)
		return rep
	}
	t := time.Now()
	rg, err := buildRung(w, w.top, conns, dataDir, false)
	if err != nil {
		rep.fail("set-up: %v", err)
		return rep
	}
	setups = append(setups, time.Since(t).Seconds())

	gens := make([]*Generator, conns)
	reps := make([]*replayer, conns)
	for i := range gens {
		gens[i] = NewGenerator(w.spec, streamSeed(seed, i))
		reps[i] = newReplayer(rg.layers[i])
		for j := 0; j < w.warm; j++ {
			op := gens[i].Next()
			reps[i].do(&op)
		}
	}

	before := make([]counts, conns)
	for i, r := range reps {
		before[i] = r.c
	}
	hs := make([][numOpKinds]*hist, conns)
	for i := range hs {
		for k := range hs[i] {
			hs[i][k] = newHist()
		}
	}
	var heapMB float64
	var gcPause time.Duration
	var done atomic.Int64
	var rates, cpuPerOp, tail90, tail99 []float64
	var p50s [numOpKinds][]float64
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline, mid := start.Add(d), start.Add(d/2)
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, r, h := gens[i], reps[i], &hs[i]
			// Connection 0 also samples the windows and tail blocks, and
			// takes the heap reading at mid-run (the window holding the
			// forced collection is dropped).
			sampling, heapDone := i == 0, i != 0
			winStart, winDone, winCPU := start, int64(0), cpu0
			var winH [numOpKinds]*hist
			for k := range winH {
				winH[k] = newHist()
			}
			block := newHist()
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				if sampling && now.Sub(winStart) >= window {
					n, c := done.Load(), cpuTime()
					if !heapDone && now.After(mid) {
						heapMB, gcPause = liveHeapMB()
						heapDone = true
					} else if n > winDone {
						rates = append(rates, float64(n-winDone)/now.Sub(winStart).Seconds())
						cpuPerOp = append(cpuPerOp, float64(c-winCPU)/1e3/float64(n-winDone))
						for k, wh := range winH {
							if wh.n > 0 {
								p50s[k] = append(p50s[k], wh.quantileUs(0.5))
							}
						}
					}
					for _, wh := range winH {
						wh.reset()
					}
					winStart, winDone, winCPU = time.Now(), done.Load(), cpuTime()
				}
				op := g.Next()
				out, res := r.do(&op)
				if out == outSkipped {
					continue
				}
				h[op.Kind].add(res.d)
				done.Add(1)
				if sampling {
					winH[op.Kind].add(res.d)
				}
				if sampling && op.Kind == OpConnect {
					if block.add(res.d); block.n == tailBlock {
						tail90 = append(tail90, block.quantileUs(0.90))
						tail99 = append(tail99, block.quantileUs(0.99))
						block = newHist()
					}
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start) - gcPause
	cpu := cpuTime() - cpu0

	var win counts
	total := [numOpKinds]*hist{}
	for k := range total {
		total[k] = newHist()
	}
	for i, r := range reps {
		win.attempted += r.c.attempted - before[i].attempted
		win.errors += r.c.errors - before[i].errors
		win.blocked += r.c.blocked - before[i].blocked
		win.offered += r.c.offered - before[i].offered
		for k := range total {
			total[k].merge(hs[i][k])
		}
		r.teardown()
		if r.firstErr != nil {
			rep.fail("%v", r.firstErr)
		}
	}
	var all counts
	for _, r := range reps {
		all.connectOK += r.c.connectOK
		all.branchOK += r.c.branchOK
		all.disconnectOK += r.c.disconnectOK
		all.blocked += r.c.blocked
	}
	if err := rg.checkCounts(all); err != nil {
		rep.fail("%v", err)
	}
	if err := rg.checkIdle(); err != nil {
		rep.fail("%v", err)
	}
	if err := rg.close(); err != nil {
		rep.fail("teardown: %v", err)
	}
	more, err := setupTimes(w, conns, dataDir)
	if err != nil {
		rep.fail("set-up: %v", err)
	}
	setups = append(setups, more...)

	rep.attempted, rep.failed = win.attempted, win.errors
	blockRate := ratio(float64(win.blocked), float64(win.offered))
	errorRate := ratio(float64(win.errors), float64(win.attempted))
	if w.m == 0 && win.blocked != 0 {
		rep.fail("%d blocks at the sufficient bound (block_rate %.6f): Theorem 1 says 0", win.blocked, blockRate)
	}
	if win.errors != 0 {
		rep.fail("%d failed requests (error_rate %.6f)", win.errors, errorRate)
	}

	rep.set("ops_per_s", median(rates), "1/s", true)
	p50 := func(k OpKind) float64 {
		if len(p50s[k]) == 0 {
			return total[k].quantileUs(0.50)
		}
		return median(p50s[k])
	}
	rep.set("connect_p50_us", p50(OpConnect), "us", true)
	if len(tail99) == 0 {
		fmt.Printf("note: fewer than %d connects; the tail is the whole run's\n", tailBlock)
		tail90 = []float64{total[OpConnect].quantileUs(0.90)}
		tail99 = []float64{total[OpConnect].quantileUs(0.99)}
	}
	rep.set("connect_p90_us", median(tail90), "us", true)
	rep.set("connect_p99_us", median(tail99), "us", false)
	rep.set("connect_p99_run_us", total[OpConnect].quantileUs(0.99), "us", false)
	if total[OpBranch].n > 0 {
		rep.set("branch_p50_us", p50(OpBranch), "us", false)
		rep.set("branch_p99_us", total[OpBranch].quantileUs(0.99), "us", false)
	}
	rep.set("disconnect_p50_us", p50(OpDisconnect), "us", true)
	rep.set("read_p50_us", p50(OpRead), "us", true)
	rep.set("block_rate", blockRate, "ratio", false)
	rep.set("error_rate", errorRate, "ratio", false)
	rep.set("cpu_us_per_op", median(cpuPerOp), "us", true)
	rep.set("live_heap_mb", heapMB, "MB", true)
	rep.set("setup_s", median(setups), "s", true)
	fmt.Printf("whole run: %.1f ops/s, %.2f us CPU per op; medians over %d windows of %v; connect tail median over %d blocks of %d\n",
		float64(win.attempted)/wall.Seconds(), float64(cpu)/1e3/float64(win.attempted), len(rates), window, len(tail99), tailBlock)
	fmt.Printf("window ops/s: %.0f\n", rates)
	fmt.Printf("set-up median of %d; samples connect=%d branch=%d read=%d disconnect=%d over %.3fs (gc pause %.3fms excluded)\n",
		len(setups), total[OpConnect].n, total[OpBranch].n, total[OpRead].n, total[OpDisconnect].n, wall.Seconds(), float64(gcPause)/1e6)
	return rep
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
