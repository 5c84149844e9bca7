package span

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config parameterizes a Tracer.
type Config struct {
	// Capacity is the completed-trace ring size across all shards
	// (0 = default 256; negative disables tracing entirely — every
	// request sees inactive spans).
	Capacity int
	// SlowThreshold marks a trace slow — kept at 100% — when the root
	// span meets or exceeds it (0 = default 5ms).
	SlowThreshold time.Duration
	// SampleEvery keeps 1 of every SampleEvery routine successful
	// traces (0 = default 16; 1 keeps everything).
	SampleEvery int
	// Log, when non-nil, receives every kept trace as one JSON line —
	// the -span-log export.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = 256
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 5 * time.Millisecond
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 16
	}
	return c
}

// tracerShards is the shard count of the completed-trace ring. Trace
// completion picks a shard round-robin, so concurrent request
// goroutines finishing traces contend on different locks.
const tracerShards = 8

// tracerShard is one lock-guarded slice of the completed-trace ring.
type tracerShard struct {
	mu   sync.Mutex
	ring *obs.Ring[TraceRecord]
}

func (sh *tracerShard) push(r TraceRecord) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ring.Push(r)
}

// Tracer owns the completed-trace ring buffer and the sampling policy.
// A nil Tracer is valid and never records.
type Tracer struct {
	cfg    Config
	shards [tracerShards]*tracerShard

	next    atomic.Uint64 // round-robin shard cursor
	seq     atomic.Uint64 // routine-success sampling counter
	kept    atomic.Int64
	dropped atomic.Int64

	logMu sync.Mutex
}

// NewTracer builds a tracer; a negative cfg.Capacity returns nil (the
// disabled tracer).
func NewTracer(cfg Config) *Tracer {
	if cfg.Capacity < 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg}
	per := cfg.Capacity / tracerShards
	if per < 1 {
		per = 1
	}
	for i := range t.shards {
		t.shards[i] = &tracerShard{ring: obs.NewRing[TraceRecord](per)}
	}
	return t
}

// Root opens a root span for a new trace. traceparent, when non-empty
// and well-formed, supplies the inbound trace id; otherwise a fresh one
// is generated. On a nil Tracer the returned span is inactive.
func (t *Tracer) Root(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	rec := &traceRec{tracer: t}
	s := &Span{
		rec:    rec,
		name:   name,
		id:     NewSpanID(),
		start:  time.Now(),
		status: StatusOK,
		root:   true,
	}
	if traceparent != "" {
		if tid, parent, _, err := ParseTraceparent(traceparent); err == nil {
			rec.traceID = tid
			s.parent = parent
		}
	}
	if rec.traceID.IsZero() {
		rec.traceID = NewTraceID()
	}
	rec.rec.TraceID = rec.traceID.String()
	return s
}

// finish applies the tail-sampling policy to a completed trace.
// Blocked, errored, and slow traces are always kept; routine successes
// 1 in SampleEvery.
func (t *Tracer) finish(r *TraceRecord) {
	keep := r.Blocked || r.Error || r.DurationNs >= t.cfg.SlowThreshold.Nanoseconds()
	if !keep {
		keep = t.seq.Add(1)%uint64(t.cfg.SampleEvery) == 0
	}
	if !keep {
		t.dropped.Add(1)
		return
	}
	t.kept.Add(1)
	t.shards[t.next.Add(1)%tracerShards].push(*r)
	if t.cfg.Log != nil {
		line, err := json.Marshal(r)
		if err == nil {
			t.logMu.Lock()
			_, _ = t.cfg.Log.Write(append(line, '\n'))
			t.logMu.Unlock()
		}
	}
}

// Stats returns how many completed traces were kept and how many were
// sampled out.
func (t *Tracer) Stats() (kept, dropped int64) {
	if t == nil {
		return 0, 0
	}
	return t.kept.Load(), t.dropped.Load()
}

// Snapshot returns the buffered traces ordered oldest-first by root
// span start time.
func (t *Tracer) Snapshot() []TraceRecord {
	if t == nil {
		return nil
	}
	var out []TraceRecord
	for _, sh := range t.shards {
		sh.mu.Lock()
		out = sh.ring.AppendTo(out)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TraceparentHeader is the W3C header name spans propagate on.
const TraceparentHeader = "traceparent"

// untracedPaths are endpoint prefixes Middleware leaves untraced: the
// observability surfaces themselves. A wdmtop polling /metrics and
// /v1/slo every other second would otherwise fill the ring with its own
// scrapes.
var untracedPaths = []string{"/metrics", "/v1/slo", "/v1/debug/", "/debug/"}

// Middleware wraps h so every request runs under a root span named
// "http <METHOD> <path>": an inbound traceparent header is honored,
// the trace id is echoed in the traceparent response header, and error
// statuses (5xx) mark the trace errored. Observability endpoints
// (/metrics, /v1/slo, /v1/debug/, /debug/) pass through untraced. A nil
// Tracer returns h unchanged.
func (t *Tracer) Middleware(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, p := range untracedPaths {
			if strings.HasPrefix(r.URL.Path, p) {
				h.ServeHTTP(w, r)
				return
			}
		}
		root := t.Root("http "+r.Method+" "+r.URL.Path, r.Header.Get(TraceparentHeader))
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		w.Header().Set(TraceparentHeader, root.Traceparent())
		sw := &obs.StatusWriter{ResponseWriter: w, Status: http.StatusOK}
		h.ServeHTTP(sw, r.WithContext(ContextWith(r.Context(), root)))
		root.SetAttr("status", sw.Status)
		if sw.Status >= 500 {
			root.SetError(http.StatusText(sw.Status))
		}
		root.End()
	})
}
