package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWithRequestLog: the completion line carries the request's trace
// id, read from the traceparent response header the wrapped handler
// (the span tracer's middleware, in the served stack) set; no other id
// is minted or echoed.
func TestWithRequestLog(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	var logBuf bytes.Buffer
	h := WithRequestLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
		w.WriteHeader(http.StatusTeapot)
	}), slog.New(slog.NewJSONHandler(&logBuf, nil)))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/connect", nil))

	if got := rec.Header().Get("X-Request-Id"); got != "" {
		t.Fatalf("X-Request-Id = %q, want no such header", got)
	}
	var line struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
		Method  string `json:"method"`
		Path    string `json:"path"`
		Status  int    `json:"status"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, logBuf.Bytes())
	}
	if line.Msg != "request" || line.TraceID != tid || line.Method != "POST" ||
		line.Path != "/v1/connect" || line.Status != http.StatusTeapot {
		t.Fatalf("log line = %+v, want request/%s/POST//v1/connect/418", line, tid)
	}
}

// TestWithRequestLogUntraced: a response without a traceparent (the
// untraced /metrics and /v1/debug/ paths) logs no id at all.
func TestWithRequestLogUntraced(t *testing.T) {
	var logBuf bytes.Buffer
	h := WithRequestLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		slog.New(slog.NewJSONHandler(&logBuf, nil)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var line map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, logBuf.Bytes())
	}
	for _, k := range []string{"trace_id", "request_id"} {
		if v, ok := line[k]; ok {
			t.Errorf("untraced request logged %s=%v", k, v)
		}
	}
	if got := rec.Header().Get("X-Request-Id"); got != "" {
		t.Errorf("X-Request-Id = %q, want no such header", got)
	}
}

// TestStatusDefault: a handler that never calls WriteHeader logs 200.
func TestStatusDefault(t *testing.T) {
	var logBuf bytes.Buffer
	h := WithRequestLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}), slog.New(slog.NewJSONHandler(&logBuf, nil)))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	var line struct {
		Status int `json:"status"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line.Status != 200 {
		t.Fatalf("implicit status logged as %d, want 200", line.Status)
	}
}
