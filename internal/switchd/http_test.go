package switchd

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/switchd/api"
)

// do issues one request against the controller's handler in-process and
// decodes the JSON response body into out (when non-nil).
func do(t *testing.T, h http.Handler, method, path, body string, out any) int {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code
}

func TestHTTPLifecycle(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2})
	h := ctl.Handler()

	var cr api.ConnectResponse
	if code := do(t, h, "POST", "/v1/connect", `{"connection": "0.0>5.0,9.0"}`, &cr); code != http.StatusOK {
		t.Fatalf("connect: code %d", code)
	}
	if cr.Session == 0 {
		t.Fatalf("connect returned session 0: %+v", cr)
	}

	var info SessionInfo
	if code := do(t, h, "GET", "/v1/session?id=1", "", &info); code != http.StatusOK || info.Fanout != 2 {
		t.Fatalf("session: code %d info %+v", code, info)
	}

	if code := do(t, h, "POST", "/v1/branch", `{"session": 1, "dests": ["12.0"]}`, &info); code != http.StatusOK {
		t.Fatalf("branch: code %d", code)
	}
	if info.Fanout != 3 || info.Branches != 1 {
		t.Fatalf("branch info = %+v, want fanout 3", info)
	}

	var st Status
	if code := do(t, h, "GET", "/v1/status", "", &st); code != http.StatusOK {
		t.Fatalf("status: code %d", code)
	}
	if st.Active != 1 || st.Replicas != 2 || st.Model != "MSW" {
		t.Fatalf("status = %+v", st)
	}

	snap := ctl.Metrics().Snapshot()
	if snap.ConnectOK != 1 || snap.BranchOK != 1 || snap.Blocked != 0 {
		t.Fatalf("metrics = %+v", snap)
	}
	routes := snap.Ops[0].Count + snap.Ops[1].Count
	if routes != 2 { // one Add + one AddBranch
		t.Fatalf("connect+branch count = %d, want 2", routes)
	}
	var histTotal int64
	for _, h := range []*latencyHist{ctl.metrics.connectLat, ctl.metrics.branchLat} {
		for i := range h.buckets {
			histTotal += h.buckets[i].Load()
		}
	}
	if histTotal != routes {
		t.Fatalf("latency histogram sums to %d, want %d", histTotal, routes)
	}

	if code := do(t, h, "POST", "/v1/disconnect", `{"session": 1}`, nil); code != http.StatusOK {
		t.Fatalf("disconnect: code %d", code)
	}
	if code := do(t, h, "GET", "/v1/session?id=1", "", nil); code != http.StatusNotFound {
		t.Fatalf("session after disconnect: code %d, want 404", code)
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	p := testParams()
	p.M = 1 // far below the bound: easy to block
	p.X = 1
	ctl := newTestController(t, Config{Fabric: p, Replicas: 1, MaxSessions: 3})
	h := ctl.Handler()

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad json", "POST", "/v1/connect", `{"connection": `, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/connect", `{"conn": "0.0>1.0"}`, http.StatusBadRequest},
		{"bad codec", "POST", "/v1/connect", `{"connection": "zap"}`, http.StatusBadRequest},
		{"get on post", "GET", "/v1/connect", "", http.StatusMethodNotAllowed},
		{"inadmissible model", "POST", "/v1/connect", `{"connection": "0.0>5.1"}`, http.StatusBadRequest}, // MSW wants same λ
		{"unknown session disconnect", "POST", "/v1/disconnect", `{"session": 999}`, http.StatusNotFound},
		{"unknown session branch", "POST", "/v1/branch", `{"session": 999, "dests": ["3.0"]}`, http.StatusNotFound},
		{"empty branch", "POST", "/v1/branch", `{"session": 1, "dests": []}`, http.StatusBadRequest},
		{"bad session query", "GET", "/v1/session?id=x", "", http.StatusBadRequest},
		{"trailing garbage session query", "GET", "/v1/session?id=7abc", "", http.StatusBadRequest},
		{"empty session query", "GET", "/v1/session", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := do(t, h, tc.method, tc.path, tc.body, nil); code != tc.want {
			t.Errorf("%s: code %d, want %d", tc.name, code, tc.want)
		}
	}

	// Occupy the single λ0 path from input module 0 to output module 1,
	// then a second λ0 request to the same output module blocks: 409.
	if code := do(t, h, "POST", "/v1/connect", `{"connection": "0.0>4.0"}`, nil); code != http.StatusOK {
		t.Fatalf("setup connect: code %d", code)
	}
	var env api.Envelope
	req := httptest.NewRequest("POST", "/v1/connect", strings.NewReader(`{"connection": "1.0>5.0"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusConflict {
		t.Fatalf("blocked connect: code %d body %s, want 409", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code != api.CodeBlocked {
		t.Fatalf("blocked connect body %q: want error code %q", w.Body.String(), api.CodeBlocked)
	}

	// Fill to the cap (one live already): two more, then 429.
	if code := do(t, h, "POST", "/v1/connect", `{"connection": "4.0>8.0"}`, nil); code != http.StatusOK {
		t.Fatalf("cap fill 1: code %d", code)
	}
	if code := do(t, h, "POST", "/v1/connect", `{"connection": "8.0>12.0"}`, nil); code != http.StatusOK {
		t.Fatalf("cap fill 2: code %d", code)
	}
	if code := do(t, h, "POST", "/v1/connect", `{"connection": "12.0>0.0"}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("over cap: code %d, want 429", code)
	}

	// Drain: everything released, new work 503.
	ctl.Drain(context.Background())
	if code := do(t, h, "POST", "/v1/connect", `{"connection": "12.0>0.0"}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining connect: code %d, want 503", code)
	}

	var st Status
	if code := do(t, h, "GET", "/v1/status", "", &st); code != http.StatusOK || !st.Draining || st.Active != 0 {
		t.Fatalf("status after drain: code %d %+v", code, st)
	}
}

// TestServedConnectTraceIDIsTheOnlyID serves one connect through the
// request log around the controller's handler, as wdmserve does: the
// response carries the traceparent and neither of the retired side
// channels (Server-Timing, X-Request-Id), the log line's trace_id is
// the response's trace id, and POST /v1/loadgen is gone.
func TestServedConnectTraceIDIsTheOnlyID(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1})
	var logBuf bytes.Buffer
	h := obs.WithRequestLog(ctl.Handler(), slog.New(slog.NewJSONHandler(&logBuf, nil)))

	req := httptest.NewRequest("POST", "/v1/connect", strings.NewReader(`{"connection": "0.0>5.0"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("connect: code %d body %s", w.Code, w.Body)
	}
	tp := w.Header().Get(span.TraceparentHeader)
	tid, _, _, err := span.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	for _, hdr := range []string{"Server-Timing", "X-Request-Id"} {
		if v := w.Header().Get(hdr); v != "" {
			t.Errorf("response carries %s: %q", hdr, v)
		}
	}
	var line map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("request log line not JSON: %v\n%s", err, logBuf.Bytes())
	}
	if line["msg"] != "request" || line["trace_id"] != tid.String() {
		t.Errorf("request log line %v, want msg=request trace_id=%s", line, tid)
	}
	if _, ok := line["request_id"]; ok {
		t.Errorf("request log line still carries request_id: %v", line)
	}

	if code := do(t, ctl.Handler(), "POST", "/v1/loadgen", `{"offered_rps": 1}`, nil); code != http.StatusNotFound {
		t.Errorf("POST /v1/loadgen: code %d, want 404", code)
	}
}
