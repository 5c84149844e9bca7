package tsdb

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// alertHarness wires a store, a clock, and a notification recorder.
type alertHarness struct {
	clk    *fakeClock
	store  *Store
	eng    *AlertEngine
	mu     sync.Mutex
	events []AlertEvent
}

func newAlertHarness(t *testing.T, rules []Rule) *alertHarness {
	t.Helper()
	h := &alertHarness{clk: newClock()}
	h.store = testStore(h.clk, DefaultTiers())
	var err error
	h.eng, err = NewAlertEngine(h.store, rules, AlertOpts{
		Now: h.clk.now,
		Notify: func(ev AlertEvent) {
			h.mu.Lock()
			h.events = append(h.events, ev)
			h.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *alertHarness) notified() []AlertEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]AlertEvent(nil), h.events...)
}

func (h *alertHarness) state(name string) AlertStatus {
	for _, st := range h.eng.Snapshot() {
		if st.Rule.Name == name {
			return st
		}
	}
	return AlertStatus{}
}

func TestThresholdPendingToFiring(t *testing.T) {
	h := newAlertHarness(t, []Rule{{
		Name:  "blocked",
		Expr:  "rate(wdm_blocked_total[30s])",
		Op:    ">",
		Value: 0,
		For:   Duration(5 * time.Second),
	}})
	blocked := 0.0
	tick := func(inc float64) {
		blocked += inc
		h.store.Append(h.clk.now(), "wdm_blocked_total", nil, KindCounter, blocked)
		h.eng.Eval(h.clk.now())
		h.clk.advance(time.Second)
	}
	// Quiet counter: inactive.
	for i := 0; i < 10; i++ {
		tick(0)
	}
	if st := h.state("blocked"); st.State != StateInactive {
		t.Fatalf("quiet state = %s", st.State)
	}
	// Counter starts moving: pending first, firing after For.
	tick(1)
	if st := h.state("blocked"); st.State != StatePending {
		t.Fatalf("first violation state = %s, want pending", st.State)
	}
	for i := 0; i < 6; i++ {
		tick(1)
	}
	st := h.state("blocked")
	if st.State != StateFiring {
		t.Fatalf("state after For elapsed = %s, want firing", st.State)
	}
	if st.Fired != 1 {
		t.Fatalf("fired count = %d", st.Fired)
	}
	ev := h.notified()
	if len(ev) != 1 || ev[0].State != StateFiring || ev[0].Rule != "blocked" {
		t.Fatalf("notifications = %+v", ev)
	}
	// Counter goes quiet: the 30s rate window drains, then resolves.
	for i := 0; i < 40; i++ {
		tick(0)
	}
	if st := h.state("blocked"); st.State != StateInactive {
		t.Fatalf("state after quiet = %s, want inactive", st.State)
	}
	ev = h.notified()
	if len(ev) != 2 || ev[1].State != StateInactive {
		t.Fatalf("resolve notification missing: %+v", ev)
	}
}

func TestPendingResetWithoutFiring(t *testing.T) {
	h := newAlertHarness(t, []Rule{{
		Name: "g", Expr: "gauge", Op: ">", Value: 10, For: Duration(30 * time.Second),
	}})
	h.store.Append(h.clk.now(), "gauge", nil, KindGauge, 50)
	h.eng.Eval(h.clk.now())
	if st := h.state("g"); st.State != StatePending {
		t.Fatalf("state = %s, want pending", st.State)
	}
	h.clk.advance(5 * time.Second)
	h.store.Append(h.clk.now(), "gauge", nil, KindGauge, 1)
	h.eng.Eval(h.clk.now())
	if st := h.state("g"); st.State != StateInactive {
		t.Fatalf("state = %s, want inactive (condition cleared during pending)", st.State)
	}
	if len(h.notified()) != 0 {
		t.Fatalf("pending blip must not notify: %+v", h.notified())
	}
}

func TestGuardGatesRule(t *testing.T) {
	h := newAlertHarness(t, []Rule{{
		Name:  "guarded",
		Expr:  "rate(wdm_blocked_total[30s])",
		Op:    ">",
		Value: 0,
		Guard: &Condition{Expr: "wdm_m_margin", Op: ">=", Value: 0},
	}})
	blocked := 0.0
	tick := func(margin float64) {
		blocked++
		h.store.Append(h.clk.now(), "wdm_blocked_total", nil, KindCounter, blocked)
		h.store.Append(h.clk.now(), "wdm_m_margin", nil, KindGauge, margin)
		h.eng.Eval(h.clk.now())
		h.clk.advance(time.Second)
	}
	// Blocking while UNDER the bound (margin < 0): expected, no alert.
	for i := 0; i < 5; i++ {
		tick(-2)
	}
	if st := h.state("guarded"); st.State != StateInactive {
		t.Fatalf("under-bound blocking alerted: %s", st.State)
	}
	// Blocking while at/above the bound: theorem violation, fires
	// immediately (For = 0).
	tick(0)
	if st := h.state("guarded"); st.State != StateFiring {
		t.Fatalf("at-bound blocking state = %s, want firing", st.State)
	}
}

func TestAbsentForm(t *testing.T) {
	h := newAlertHarness(t, []Rule{{
		Name: "dead", Form: "absent", Expr: "wdm_uptime_seconds", Window: Duration(10 * time.Second),
	}})
	// Never seen: trips immediately.
	h.eng.Eval(h.clk.now())
	if st := h.state("dead"); st.State != StateFiring {
		t.Fatalf("never-seen state = %s, want firing", st.State)
	}
	// Sample arrives: resolves.
	h.store.Append(h.clk.now(), "wdm_uptime_seconds", nil, KindGauge, 1)
	h.eng.Eval(h.clk.now())
	if st := h.state("dead"); st.State != StateInactive {
		t.Fatalf("fresh-sample state = %s, want inactive", st.State)
	}
	// Goes stale past the window: trips again.
	h.clk.advance(11 * time.Second)
	h.eng.Eval(h.clk.now())
	if st := h.state("dead"); st.State != StateFiring {
		t.Fatalf("stale state = %s, want firing", st.State)
	}
}

func TestDefaultRulesValidateAndCoverInvariant(t *testing.T) {
	rules := DefaultRules()
	names := map[string]bool{}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			t.Errorf("default rule %s: %v", rules[i].Name, err)
		}
		names[rules[i].Name] = true
	}
	for _, want := range []string{"blocked_in_nonblocking_regime", "degraded_admission", "replication_lag", "wal_fsync_p99_slow"} {
		if !names[want] {
			t.Errorf("shipped ruleset missing %s", want)
		}
	}
	// The headline rule must be guarded on the bound margin: blocking
	// below the sufficient m is load, not a theorem violation.
	for _, r := range rules {
		if r.Name == "blocked_in_nonblocking_regime" {
			if r.Guard == nil || r.Guard.Expr != "wdm_m_margin" {
				t.Errorf("headline rule must guard on wdm_m_margin, got %+v", r.Guard)
			}
		}
	}
}

func TestLoadRulesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alerts.json")
	doc := `{"rules": [
		{"name": "lag", "expr": "wdm_replication_lag_records", "op": ">", "value": 10, "for": "15s"},
		{"name": "dead", "form": "absent", "expr": "wdm_uptime_seconds", "window": "30s"},
		{"name": "burn", "expr": "wdm_slo_availability_burn{window=\"5m\"}", "op": ">", "value": 14.4,
		 "guard": {"expr": "wdm_slo_availability_burn{window=\"1h\"}", "op": ">", "value": 14.4}}
	]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	rules, err := LoadRules(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	if rules[0].For != Duration(15*time.Second) || rules[2].Guard == nil || rules[2].Guard.Value != 14.4 {
		t.Fatalf("parsed rules = %+v", rules)
	}

	// Broken files are rejected with a per-rule error.
	for _, bad := range []string{
		`{"rules": [{"name": "", "expr": "x", "op": ">", "value": 1}]}`,
		`{"rules": [{"name": "x", "expr": "rate(", "op": ">", "value": 1}]}`,
		`{"rules": [{"name": "x", "expr": "y", "op": "~", "value": 1}]}`,
		`{"rules": [{"name": "x", "form": "nope", "expr": "y"}]}`,
		`{"rules": [{"name": "x", "expr": "y", "op": ">", "value": 1}, {"name": "x", "expr": "y", "op": ">", "value": 1}]}`,
		`{"rules": [{"name": "x", "expr": "y", "op": ">", "value": 1, "bogus": true}]}`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRules(path); err == nil {
			t.Errorf("accepted bad rules file: %s", bad)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	var r Rule
	if err := json.Unmarshal([]byte(`{"name":"x","expr":"y","op":">","for":90}`), &r); err != nil {
		t.Fatal(err)
	}
	if r.For != Duration(90*time.Second) {
		t.Fatalf("numeric duration = %v", time.Duration(r.For))
	}
	raw, err := json.Marshal(Duration(5 * time.Minute))
	if err != nil || string(raw) != `"5m0s"` {
		t.Fatalf("marshal = %s, %v", raw, err)
	}
}

func TestWebhookNotification(t *testing.T) {
	var mu sync.Mutex
	var got []AlertEvent
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev AlertEvent
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	}))
	defer srv.Close()

	clk := newClock()
	store := testStore(clk, DefaultTiers())
	eng, err := NewAlertEngine(store, []Rule{{
		Name: "g", Expr: "gauge", Op: ">", Value: 0,
	}}, AlertOpts{Now: clk.now, WebhookURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	store.Append(clk.now(), "gauge", nil, KindGauge, 5)
	eng.Eval(clk.now())
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("webhook never delivered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got[0].Rule != "g" || got[0].State != StateFiring || got[0].Value != 5 {
		t.Fatalf("webhook event = %+v", got[0])
	}
}
