package switchd

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/switchd/api"
	"repro/internal/wdm"
)

// BenchmarkSwitchdThroughput measures the full in-process serving path
// — JSON decode, admission, shard bookkeeping, fabric routing under the
// plane mutex, JSON encode — with no network in the way, once per
// registered fabric backend. Each parallel goroutine claims a private
// port pair on its own plane slice and cycles connect/disconnect, so
// every request is admissible and the benchmark measures throughput,
// not blocking. The lanes are adjacent-port unicasts, admissible on
// every backend (disjoint ring edges for the mesh, disjoint module
// slots for the Clos constructions).
//
// With BENCH_JSON=<path> set, the final (largest) run per backend
// writes a machine-readable summary row so the perf trajectory can be
// tracked across PRs (see `make bench-json`).
func BenchmarkSwitchdThroughput(b *testing.B) {
	for _, name := range backend.Names() {
		b.Run(name, func(b *testing.B) { benchSwitchdThroughput(b, name) })
	}
}

func benchSwitchdThroughput(b *testing.B, backendName string) {
	const replicas = 4
	ctl, err := New(Config{
		Backend: backendName,
		Fabric: multistage.Params{
			N: 64, K: 2, R: 8,
			Model: wdm.MSW,
			Lite:  true,
		},
		Replicas: replicas,
		Shards:   32,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := ctl.Handler()
	n := ctl.Params().N

	// Pre-render one connect body per (plane, port-pair) lane. Each lane
	// is a unicast 2p.0 -> (2p+1).0 on a pinned plane: disjoint slots,
	// always admissible when the lane's previous session is gone.
	lanes := replicas * n / 2
	bodies := make([]string, lanes)
	for lane := 0; lane < lanes; lane++ {
		plane := lane % replicas
		p := (lane / replicas) * 2
		bodies[lane] = fmt.Sprintf(`{"connection": "%d.0>%d.0", "fabric": %d}`, p, p+1, plane)
	}

	var nextLane atomic.Int64
	var failures atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lane := int(nextLane.Add(1)-1) % lanes
		body := bodies[lane]
		for pb.Next() {
			var cr api.ConnectResponse
			if code := benchDo(h, "/v1/connect", body, &cr); code != http.StatusOK {
				failures.Add(1)
				continue
			}
			disc := fmt.Sprintf(`{"session": %d}`, cr.Session)
			if code := benchDo(h, "/v1/disconnect", disc, nil); code != http.StatusOK {
				failures.Add(1)
			}
		}
	})
	b.StopTimer()
	if f := failures.Load(); f > 0 {
		b.Fatalf("%d request cycles failed", f)
	}

	// Each iteration is one connect + one disconnect.
	elapsed := b.Elapsed()
	reqPerSec := float64(2*b.N) / elapsed.Seconds()
	b.ReportMetric(reqPerSec, "req/s")

	if path := os.Getenv("BENCH_JSON"); path != "" {
		// Route-latency quantiles from the server's own histograms (time
		// inside the fabric lock, excluding HTTP/JSON overhead): connect
		// and branch together are the fabric routing operations.
		m := ctl.Metrics()
		row := map[string]any{
			"benchmark":    "BenchmarkSwitchdThroughput/" + backendName,
			"backend":      backendName,
			"goos":         runtime.GOOS,
			"goarch":       runtime.GOARCH,
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"replicas":     replicas,
			"n":            n,
			"k":            ctl.Params().K,
			"iterations":   b.N,
			"ns_per_op":    float64(elapsed.Nanoseconds()) / float64(b.N),
			"req_per_sec":  reqPerSec,
			"route_p50_us": bucketQuantileUs(0.50, m.connectLat, m.branchLat),
			"route_p99_us": bucketQuantileUs(0.99, m.connectLat, m.branchLat),
		}
		// Per-phase attribution columns (lock_wait is the mutex-funnel
		// number the 1-vs-4-core rows exist to explain).
		for p, h := range m.phase {
			if h.count.Load() > 0 {
				row[phaseNames[p]+"_p50_us"] = bucketQuantileUs(0.50, h)
				row[phaseNames[p]+"_p99_us"] = bucketQuantileUs(0.99, h)
			}
		}
		writeBenchJSON(b, path, row)
	}
}

// bucketQuantileUs is obs.BucketQuantile over the summed buckets of
// hists, in microseconds (0 when they are empty).
func bucketQuantileUs(q float64, hists ...*latencyHist) float64 {
	les := make([]float64, len(routeBucketsMicros)+1)
	for i, us := range routeBucketsMicros {
		les[i] = float64(us)
	}
	les[len(routeBucketsMicros)] = math.Inf(+1)
	cum := make([]float64, len(les))
	var total int64
	for i := range les {
		for _, h := range hists {
			total += h.buckets[i].Load()
		}
		cum[i] = float64(total)
	}
	v, _ := obs.BucketQuantile(q, les, cum)
	return v
}

func benchDo(h http.Handler, path, body string, out any) int {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			return http.StatusInternalServerError
		}
	}
	return w.Code
}

// writeBenchJSON records the run into a JSON array with one row per
// (benchmark, gomaxprocs) pair, so `go test -cpu 1,4` leaves a scaling
// curve rather than only the last configuration. Benchmarks re-run
// with growing b.N; each row ends up holding that shape's final,
// longest run. A pre-array single-object file is absorbed as one row.
func writeBenchJSON(b *testing.B, path string, payload map[string]any) {
	b.Helper()
	var rows []map[string]any
	if prev, err := os.ReadFile(path); err == nil {
		if json.Unmarshal(prev, &rows) != nil {
			var one map[string]any
			if json.Unmarshal(prev, &one) == nil && one != nil {
				rows = []map[string]any{one}
			}
		}
	}
	rowKey := func(m map[string]any) string {
		return fmt.Sprintf("%v/%v", m["benchmark"], m["gomaxprocs"])
	}
	replaced := false
	for i, row := range rows {
		if rowKey(row) == rowKey(payload) {
			rows[i] = payload
			replaced = true
			break
		}
	}
	if !replaced {
		rows = append(rows, payload)
	}
	sort.Slice(rows, func(i, j int) bool { return rowKey(rows[i]) < rowKey(rows[j]) })
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		b.Fatalf("marshaling bench json: %v", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Fatalf("writing %s: %v", path, err)
	}
}
