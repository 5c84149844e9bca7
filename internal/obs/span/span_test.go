package span

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tid, sid, FlagSampled)
	gt, gs, flags, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if gt != tid || gs != sid || flags != FlagSampled {
		t.Fatalf("round trip = %v %v %02x, want %v %v %02x", gt, gs, flags, tid, sid, FlagSampled)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	cases := []struct{ name, header string }{
		{"empty", ""},
		{"short", "00-abc"},
		{"bad separators", "00+0af7651916cd43dd8448eb211c80319c+b7ad6b7169203331+01"},
		{"version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"bad trace hex", "00-ZZf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"bad parent hex", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333Z-01"},
		{"zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01"},
		{"zero parent id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01"},
		{"bad flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz"},
	}
	for _, tc := range cases {
		if _, _, _, err := ParseTraceparent(tc.header); err == nil {
			t.Errorf("%s: parsed %q without error", tc.name, tc.header)
		}
	}
}

func TestInactiveSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", 1)
	s.SetError("boom")
	s.SetBlocked("blocked")
	s.End()
	if s.Active() || s.TraceID() != "" || s.Traceparent() != "" {
		t.Fatal("nil span reported activity")
	}
	if child := s.StartChild("c"); child.Active() {
		t.Fatal("child of nil span is active")
	}
	ctx, sp := Start(context.Background(), "op")
	if sp.Active() {
		t.Fatal("Start without a root produced an active span")
	}
	if FromContext(ctx).Active() {
		t.Fatal("context without a root carries an active span")
	}
	var tr *Tracer
	if s := tr.Root("r", ""); s.Active() {
		t.Fatal("nil tracer produced an active root")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
}

func TestNestedSpansAccumulate(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	root := tr.Root("http POST /v1/connect", "")
	ctx := ContextWith(context.Background(), root)

	ctx2, op := Start(ctx, "switchd.connect")
	op.SetAttr("connection", "0.0>5.0")
	_, fab := Start(ctx2, "fabric.add")
	fab.SetAttr("fabric", 0)
	mid := fab.StartChild("route.middle")
	mid.SetAttr("middle", 3)
	mid.End()
	fab.End()
	op.End()
	root.End()

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("snapshot holds %d traces, want 1", len(traces))
	}
	trc := traces[0]
	if trc.Root != "http POST /v1/connect" || trc.TraceID == "" || trc.Blocked || trc.Error {
		t.Fatalf("trace = %+v", trc)
	}
	if len(trc.Spans) != 4 {
		t.Fatalf("trace has %d spans, want 4", len(trc.Spans))
	}
	// Spans finish leaf-first; the root is last.
	byName := map[string]SpanRecord{}
	for _, s := range trc.Spans {
		byName[s.Name] = s
	}
	if byName["route.middle"].Parent != byName["fabric.add"].SpanID {
		t.Fatal("route.middle is not parented under fabric.add")
	}
	if byName["fabric.add"].Parent != byName["switchd.connect"].SpanID {
		t.Fatal("fabric.add is not parented under switchd.connect")
	}
	if byName["switchd.connect"].Parent != byName["http POST /v1/connect"].SpanID {
		t.Fatal("switchd.connect is not parented under the root")
	}
}

func TestTailSamplingKeepsBlockedAndSlow(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1 << 30, SlowThreshold: time.Hour})

	// Routine fast successes: all sampled out at this rate.
	for i := 0; i < 10; i++ {
		tr.Root("fast", "").End()
	}
	kept, dropped := tr.Stats()
	if kept != 0 || dropped != 10 {
		t.Fatalf("routine traces: kept %d dropped %d, want 0/10", kept, dropped)
	}

	blocked := tr.Root("blocked", "")
	blocked.SetBlocked("no middle available")
	blocked.End()
	errored := tr.Root("errored", "")
	errored.SetError("boom")
	errored.End()
	if kept, _ := tr.Stats(); kept != 2 {
		t.Fatalf("kept = %d after blocked+errored, want 2", kept)
	}
	// lastBlocked is the newest blocked trace in the ring, the record
	// /v1/debug/spans?blocked=1&limit=1 serves.
	lastBlocked := func() (TraceRecord, bool) {
		snap := tr.Snapshot()
		for i := len(snap) - 1; i >= 0; i-- {
			if snap[i].Blocked {
				return snap[i], true
			}
		}
		return TraceRecord{}, false
	}
	last, ok := lastBlocked()
	if !ok || last.Root != "blocked" || !last.Blocked {
		t.Fatalf("newest blocked trace = %+v, %v", last, ok)
	}

	// A child span's blocked status propagates to the trace.
	root := tr.Root("parent", "")
	child := root.StartChild("fabric.add")
	child.SetBlocked("blocked leaf")
	child.End()
	root.End()
	if last, _ := lastBlocked(); last.Root != "parent" {
		t.Fatalf("newest blocked trace after child block = %+v", last)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := NewTracer(Config{Capacity: tracerShards, SampleEvery: 1})
	for i := 0; i < 3*tracerShards; i++ {
		tr.Root("r", "").End()
	}
	if got := len(tr.Snapshot()); got != tracerShards {
		t.Fatalf("ring holds %d traces, want %d", got, tracerShards)
	}
	kept, _ := tr.Stats()
	if kept != 3*tracerShards {
		t.Fatalf("kept = %d, want %d (evicted traces still counted)", kept, 3*tracerShards)
	}
}

func TestSpanLogJSONLines(t *testing.T) {
	var buf bytes.Buffer
	mu := &syncWriter{w: &buf}
	tr := NewTracer(Config{SampleEvery: 1, Log: mu})
	root := tr.Root("op", "")
	root.SetBlocked("why")
	root.End()
	tr.Root("op2", "").End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("span log holds %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec TraceRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("span log line does not parse: %v", err)
	}
	if !rec.Blocked || rec.Root != "op" || rec.TraceID == "" {
		t.Fatalf("logged record = %+v", rec)
	}
}

type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestMiddleware(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	var sawActive bool
	var serverTraceID string
	h := tr.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := FromContext(r.Context())
		sawActive = sp.Active()
		serverTraceID = sp.TraceID()
		w.WriteHeader(http.StatusConflict)
	}))

	// Inbound traceparent: the server joins the client's trace.
	tid := NewTraceID()
	req := httptest.NewRequest("POST", "/v1/connect", nil)
	req.Header.Set(TraceparentHeader, FormatTraceparent(tid, NewSpanID(), FlagSampled))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if !sawActive {
		t.Fatal("handler saw no active span")
	}
	if serverTraceID != tid.String() {
		t.Fatalf("server trace id %s, want inbound %s", serverTraceID, tid)
	}
	if got := w.Header().Get(TraceparentHeader); !strings.Contains(got, tid.String()) {
		t.Fatalf("response traceparent %q does not carry the trace id", got)
	}

	// No inbound header: an id is generated and echoed.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/connect", nil))
	if got := w.Header().Get(TraceparentHeader); got == "" {
		t.Fatal("no traceparent echoed for header-less request")
	}

	// Observability endpoints stay untraced.
	kept0, dropped0 := tr.Stats()
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if kept, dropped := tr.Stats(); kept != kept0 || dropped != dropped0 {
		t.Fatal("/metrics produced a trace")
	}
	if got := w.Header().Get(TraceparentHeader); got != "" {
		t.Fatalf("/metrics echoed traceparent %q", got)
	}

	// Nil tracer: pass-through.
	var disabled *Tracer
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := disabled.Middleware(inner); got == nil {
		t.Fatal("nil tracer middleware returned nil handler")
	}
}
