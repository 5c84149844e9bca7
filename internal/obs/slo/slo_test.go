package slo

import (
	"encoding/json"
	"testing"
	"time"
)

// fakeHistory stands in for the metrics registry and its history: live
// cumulative counts, sampled (as a scrape would) every time the clock
// moves.
type fakeHistory struct {
	now     time.Time
	live    Counts
	samples []sample
}

type sample struct {
	t time.Time
	c Counts
}

func newFakeHistory() *fakeHistory {
	return &fakeHistory{now: time.Unix(1_700_000_000, 0)}
}

// record adds one routing operation: good reports whether the fabric
// routed it, d its fabric latency.
func (h *fakeHistory) record(good bool, d time.Duration) {
	h.live.Ops++
	h.live.Timed++
	if !good {
		h.live.Bad++
	}
	if d > LatencyThreshold {
		h.live.Slow++
	}
}

// advance samples the live counts at the current time, then moves the
// clock.
func (h *fakeHistory) advance(d time.Duration) {
	h.samples = append(h.samples, sample{h.now, h.live})
	h.now = h.now.Add(d)
}

// at is the baseline lookup: the newest sample at or before t, zero
// before the first.
func (h *fakeHistory) at(t time.Time) Counts {
	var c Counts
	for _, s := range h.samples {
		if s.t.After(t) {
			break
		}
		c = s.c
	}
	return c
}

func (h *fakeHistory) snapshot() Snapshot { return Evaluate(h.now, h.live, h.at) }

func window(t *testing.T, s Snapshot, name string) WindowSLI {
	t.Helper()
	for _, w := range s.Windows {
		if w.Window == name {
			return w
		}
	}
	t.Fatalf("snapshot has no window %q", name)
	return WindowSLI{}
}

func alert(t *testing.T, s Snapshot, name string) AlertState {
	t.Helper()
	for _, a := range s.Alerts {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("snapshot has no alert %q", name)
	return AlertState{}
}

// TestIdleIsHealthy: with no traffic, availability is 1.0 everywhere,
// burn is zero, and nothing fires — the at-bound acceptance shape.
func TestIdleIsHealthy(t *testing.T) {
	s := newFakeHistory().snapshot()
	if !s.Healthy {
		t.Fatal("idle snapshot unhealthy")
	}
	for _, w := range s.Windows {
		if w.Availability != 1 || w.LatencyOK != 1 || w.AvailabilityBurn != 0 || w.LatencyBurn != 0 {
			t.Fatalf("idle window %+v", w)
		}
	}
	for _, a := range s.Alerts {
		if a.AvailabilityFiring || a.LatencyFiring {
			t.Fatalf("idle alert fires: %+v", a)
		}
	}
}

// TestAllGoodStaysPerfect: routed-only traffic keeps availability at
// exactly 1.0 and burn at exactly 0 — the paper's nonblocking claim as
// an SLO.
func TestAllGoodStaysPerfect(t *testing.T) {
	h := newFakeHistory()
	for i := 0; i < 5000; i++ {
		h.record(true, 100*time.Microsecond)
		if i%100 == 0 {
			h.advance(time.Second)
		}
	}
	s := h.snapshot()
	if !s.Healthy {
		t.Fatal("all-good traffic unhealthy")
	}
	w := window(t, s, "5m")
	if w.Total == 0 || w.Bad != 0 || w.Availability != 1 || w.AvailabilityBurn != 0 {
		t.Fatalf("5m window %+v", w)
	}
}

// TestBurnMath: 1% blocked against a 99.9% objective is burn 10.
func TestBurnMath(t *testing.T) {
	h := newFakeHistory()
	for i := 0; i < 1000; i++ {
		h.record(i%100 != 0, 100*time.Microsecond)
	}
	w := window(t, h.snapshot(), "5m")
	if w.Bad != 10 {
		t.Fatalf("bad = %d, want 10", w.Bad)
	}
	if got, want := w.AvailabilityBurn, 10.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("burn = %g, want %g", got, want)
	}
	if got, want := w.Availability, 0.99; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("availability = %g, want %g", got, want)
	}
}

// TestFastAlertNeedsBothWindows: a short blip trips the 5m window but
// not the 1h window once it is diluted — the alert must not fire on the
// short window alone, and must fire while both burn.
func TestFastAlertNeedsBothWindows(t *testing.T) {
	h := newFakeHistory()

	// 30% blocked for a burst: both 5m and 1h see burn 300 >> 14.4.
	for i := 0; i < 1000; i++ {
		h.record(i%10 >= 3, time.Microsecond)
	}
	s := h.snapshot()
	if a := alert(t, s, "fast"); !a.AvailabilityFiring {
		t.Fatalf("fast alert quiet during burst: %+v", a)
	}
	if s.Healthy {
		t.Fatal("snapshot healthy during burst")
	}

	// 10 minutes later the burst has left the 5m window; the 1h window
	// still burns, so the paired alert clears.
	h.advance(10 * time.Minute)
	for i := 0; i < 1000; i++ {
		h.record(true, time.Microsecond)
	}
	s = h.snapshot()
	if w := window(t, s, "5m"); w.AvailabilityBurn != 0 {
		t.Fatalf("5m burn %g after recovery, want 0", w.AvailabilityBurn)
	}
	if w := window(t, s, "1h"); w.AvailabilityBurn <= 14.4 {
		t.Fatalf("1h burn %g, want the burst still visible", w.AvailabilityBurn)
	}
	if a := alert(t, s, "fast"); a.AvailabilityFiring {
		t.Fatalf("fast alert still firing after short window cleared: %+v", a)
	}
}

// TestLatencySLIIndependent: slow-but-routed traffic burns the latency
// budget without touching availability.
func TestLatencySLIIndependent(t *testing.T) {
	h := newFakeHistory()
	for i := 0; i < 100; i++ {
		h.record(true, 2*LatencyThreshold) // routed, but slow
	}
	s := h.snapshot()
	w := window(t, s, "5m")
	if w.Availability != 1 || w.AvailabilityBurn != 0 {
		t.Fatalf("slow traffic burned availability: %+v", w)
	}
	if w.LatencyOK != 0 || w.LatencyBurn < 100-1e-9 || w.LatencyBurn > 100+1e-9 {
		t.Fatalf("latency SLI = %+v, want latency_ok 0 burn ~100", w)
	}
	if a := alert(t, s, "fast"); !a.LatencyFiring || a.AvailabilityFiring {
		t.Fatalf("fast alert = %+v, want latency-only", a)
	}
}

// TestWindowExpiry: counts age out of each window at its own width.
func TestWindowExpiry(t *testing.T) {
	h := newFakeHistory()
	for i := 0; i < 100; i++ {
		h.record(false, time.Microsecond)
	}

	h.advance(6 * time.Minute)
	s := h.snapshot()
	if w := window(t, s, "5m"); w.Total != 0 {
		t.Fatalf("5m window still holds %d after 6m", w.Total)
	}
	if w := window(t, s, "1h"); w.Total != 100 {
		t.Fatalf("1h window holds %d after 6m, want 100", w.Total)
	}

	h.advance(73 * time.Hour)
	s = h.snapshot()
	if w := window(t, s, "3d"); w.Total != 0 {
		t.Fatalf("3d window still holds %d after 73h", w.Total)
	}
	if !s.Healthy {
		t.Fatal("fully aged-out snapshot unhealthy")
	}
}

// TestSnapshotJSON: the wire shape served at /v1/slo round-trips.
func TestSnapshotJSON(t *testing.T) {
	h := newFakeHistory()
	h.record(false, 2*time.Millisecond)
	b, err := json.Marshal(h.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Objective != 0.999 || len(got.Windows) != 4 || len(got.Alerts) != 2 {
		t.Fatalf("round-tripped snapshot = %+v", got)
	}
}
