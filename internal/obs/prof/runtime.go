package prof

import (
	"runtime"
	"runtime/metrics"
	"strconv"

	"repro/internal/obs"
)

// Runtime telemetry essentials, read from runtime/metrics and written
// as wdm_go_* Prometheus series. These answer the first questions a
// latency regression raises — is the scheduler backed up, is the GC
// pausing us, is the heap growing — without attaching a profiler.

// runtimeSamples are the runtime/metrics series the exposition reads.
// Unknown names read as KindBad and are skipped, so this list degrades
// gracefully across toolchain versions.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

// WriteRuntimeProm writes the runtime telemetry gauges into w. It is
// called per scrape; metrics.Read is cheap (no stop-the-world).
func WriteRuntimeProm(w *obs.PromWriter) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)

	byName := make(map[string]*metrics.Sample, len(samples))
	for i := range samples {
		byName[samples[i].Name] = &samples[i]
	}

	if s := byName["/sched/goroutines:goroutines"]; s.Value.Kind() == metrics.KindUint64 {
		w.Gauge("wdm_go_goroutines", "Live goroutines.", float64(s.Value.Uint64()))
	}
	w.Gauge("wdm_go_gomaxprocs", "Scheduler parallelism (GOMAXPROCS).", float64(runtime.GOMAXPROCS(0)))
	if s := byName["/gc/cycles/total:gc-cycles"]; s.Value.Kind() == metrics.KindUint64 {
		w.Counter("wdm_go_gc_cycles_total", "Completed GC cycles.", float64(s.Value.Uint64()))
	}
	if s := byName["/memory/classes/heap/objects:bytes"]; s.Value.Kind() == metrics.KindUint64 {
		w.Gauge("wdm_go_heap_bytes", "Bytes of live heap objects.", float64(s.Value.Uint64()))
	}
	if s := byName["/memory/classes/total:bytes"]; s.Value.Kind() == metrics.KindUint64 {
		w.Gauge("wdm_go_memory_bytes", "Total bytes mapped by the Go runtime.", float64(s.Value.Uint64()))
	}
	writeHistQuantiles(w, byName["/sched/pauses/total/gc:seconds"],
		"wdm_go_gc_pause_seconds", "GC stop-the-world pause quantiles since process start.")
	writeHistQuantiles(w, byName["/sched/latencies:seconds"],
		"wdm_go_sched_latency_seconds", "Goroutine scheduling latency quantiles since process start.")
}

// writeHistQuantiles writes the p50 and p99 of a runtime/metrics
// histogram. Its first boundary is -Inf, so the upper bounds are
// Buckets[1:]; that underflow bucket never fills for a duration. An
// empty histogram reads 0.
func writeHistQuantiles(w *obs.PromWriter, s *metrics.Sample, name, help string) {
	if s == nil || s.Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := s.Value.Float64Histogram()
	cum := make([]float64, len(h.Counts))
	var total uint64
	for i, c := range h.Counts {
		total += c
		cum[i] = float64(total)
	}
	for _, q := range []float64{0.50, 0.99} {
		v, _ := obs.BucketQuantile(q, h.Buckets[1:], cum)
		w.Gauge(name, help, v, obs.Label{Name: "q", Value: strconv.FormatFloat(q, 'g', -1, 64)})
	}
}
