package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a settable test clock.
type fakeClock struct{ t time.Time }

func newClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestChunkRoundTrip(t *testing.T) {
	c := &chunk{}
	pts := []point{
		{1000, 0}, {2000, 1}, {3000, 1}, {4100, 42}, {5100, 41.5},
		{6100, math.Inf(+1)}, {7100, 1e12}, {8100, 1e12 + 3}, {8100, -7},
	}
	for _, p := range pts {
		c.append(p.t, p.v)
	}
	var got []point
	c.iter(func(ts int64, v float64) bool {
		got = append(got, point{ts, v})
		return true
	})
	if len(got) != len(pts) {
		t.Fatalf("round-trip %d points, want %d", len(got), len(pts))
	}
	for i, p := range pts {
		if got[i].t != p.t || got[i].v != p.v {
			t.Errorf("point %d: got (%d, %v), want (%d, %v)", i, got[i].t, got[i].v, p.t, p.v)
		}
	}
}

func TestChunkDeltaEncodingIsCompact(t *testing.T) {
	c := &chunk{}
	// A counter sampled every second, incrementing by small amounts:
	// the dominant case must stay a few bytes per point.
	ts, v := int64(0), 0.0
	for i := 0; i < chunkPoints; i++ {
		c.append(ts, v)
		ts += 1000
		v += float64(i % 3)
	}
	perPoint := float64(len(c.buf)) / float64(chunkPoints-1)
	if perPoint > 5 {
		t.Fatalf("delta encoding averages %.1f bytes/point, want <= 5", perPoint)
	}
}

// testStore builds a store with an injectable clock and small tiers.
func testStore(clk *fakeClock, tiers []Tier) *Store {
	return New(Config{
		Interval: time.Second,
		Tiers:    tiers,
		Now:      clk.now,
	})
}

// TestDownsamplingPreservesCounterMonotonicity is the golden tier
// test: a counter scraped every second for 10 minutes must decode as a
// non-decreasing sequence in every tier, and every tier must agree on
// the final cumulative value.
func TestDownsamplingPreservesCounterMonotonicity(t *testing.T) {
	clk := newClock()
	s := testStore(clk, DefaultTiers())
	total := 0.0
	for i := 0; i < 600; i++ {
		total += float64(i % 7)
		s.Append(clk.now(), "ctr_total", nil, KindCounter, total)
		clk.advance(time.Second)
	}
	s.mu.Lock()
	sr := s.series["ctr_total{}"]
	s.mu.Unlock()
	if sr == nil {
		t.Fatal("series not created")
	}
	for ti, st := range sr.tiers {
		var pts []point
		s.mu.Lock()
		st.scan(math.MinInt64, math.MaxInt64, func(ts int64, v float64) {
			pts = append(pts, point{ts, v})
		})
		s.mu.Unlock()
		if len(pts) == 0 {
			t.Fatalf("tier %d: no points", ti)
		}
		prev := math.Inf(-1)
		for i, p := range pts {
			if p.v < prev {
				t.Fatalf("tier %d: point %d decreased: %v -> %v", ti, i, prev, p.v)
			}
			prev = p.v
		}
		if last := pts[len(pts)-1].v; last != total {
			t.Errorf("tier %d: final value %v, want %v (downsampling must keep the window's last cumulative sample)", ti, last, total)
		}
		// Tier point counts reflect their resolution.
		if ti == 1 && len(pts) > 600/10+2 {
			t.Errorf("10s tier holds %d points for 600s of samples", len(pts))
		}
		if ti == 2 && len(pts) > 600/60+2 {
			t.Errorf("1m tier holds %d points for 600s of samples", len(pts))
		}
	}
}

// TestDownsamplingPreservesHistogramBucketSums scrapes a synthetic
// histogram exposition and checks that in every tier, at every
// retained timestamp of the 10s tier, cumulative bucket counts stay
// consistent: non-decreasing across le within one timestamp, and the
// +Inf bucket equal to _count.
func TestDownsamplingPreservesHistogramBucketSums(t *testing.T) {
	clk := newClock()
	s := testStore(clk, DefaultTiers())
	bounds := []float64{0.001, 0.01, 0.1}
	counts := []int64{0, 0, 0, 0}
	var sum float64
	for i := 0; i < 300; i++ {
		counts[i%4]++
		sum += 0.001 * float64(i%4)
		var pw obs.PromWriter
		pw.Histogram("h_seconds", "test", bounds, counts, sum)
		m, err := obs.ParseProm(bytes.NewReader(pw.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		s.Observe(clk.now(), m)
		clk.advance(time.Second)
	}
	les := []string{"0.001", "0.01", "0.1", "+Inf"}
	for ti := range DefaultTiers() {
		// Gather per-le decoded points keyed by timestamp.
		byLe := map[string]map[int64]float64{}
		s.mu.Lock()
		for _, le := range les {
			sr := s.series[fmt.Sprintf("h_seconds_bucket{le=%q}", le)]
			if sr == nil {
				s.mu.Unlock()
				t.Fatalf("bucket le=%s not stored", le)
			}
			pts := map[int64]float64{}
			sr.tiers[ti].scan(math.MinInt64, math.MaxInt64, func(ts int64, v float64) { pts[ts] = v })
			byLe[le] = pts
		}
		cnt := map[int64]float64{}
		if sr := s.series["h_seconds_count{}"]; sr != nil {
			sr.tiers[ti].scan(math.MinInt64, math.MaxInt64, func(ts int64, v float64) { cnt[ts] = v })
		}
		s.mu.Unlock()
		for ts := range byLe["+Inf"] {
			prev := -1.0
			for _, le := range les {
				v, ok := byLe[le][ts]
				if !ok {
					t.Fatalf("tier %d: bucket le=%s missing timestamp %d (windows must align across buckets)", ti, le, ts)
				}
				if v < prev {
					t.Fatalf("tier %d at %d: bucket le=%s count %v < previous %v", ti, ts, le, v, prev)
				}
				prev = v
			}
			if c, ok := cnt[ts]; ok && c != byLe["+Inf"][ts] {
				t.Fatalf("tier %d at %d: _count %v != +Inf bucket %v", ti, ts, c, byLe["+Inf"][ts])
			}
		}
	}
}

// TestRetentionBoundsMemory is the memory-ceiling proof: 24 hours of
// 1s samples across a fleet-sized series set must stay under a hard
// byte ceiling, because every tier evicts by point count.
func TestRetentionBoundsMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("24h simulation")
	}
	clk := newClock()
	s := testStore(clk, DefaultTiers())
	const nSeries = 8
	labels := make([]map[string]string, nSeries)
	for i := range labels {
		labels[i] = map[string]string{"i": fmt.Sprint(i)}
	}
	v := 0.0
	for sec := 0; sec < 24*3600; sec++ {
		v += 3
		for i := 0; i < nSeries; i++ {
			s.Append(clk.now(), "load_total", labels[i], KindCounter, v)
		}
		clk.advance(time.Second)
	}
	st := s.Stats()
	if st.Series != nSeries {
		t.Fatalf("series %d, want %d", st.Series, nSeries)
	}
	// Ceiling: raw tier 900 pts + 10s tier 1440 pts + 1m tier 1440 pts
	// + 10m tier 144 pts ≈ 3900 pts/series; at <=10 bytes/point encoded
	// plus chunk+tier overhead that is well under 64 KiB per series.
	ceiling := nSeries * 64 * 1024
	if st.Bytes > ceiling {
		t.Fatalf("24h of samples retain %d bytes, ceiling %d", st.Bytes, ceiling)
	}
	// And the tiers must actually have evicted: the raw tier must not
	// hold anywhere near 86400 points.
	s.mu.Lock()
	raw := s.series["load_total{"+obs.LabelKey(labels[0])+"}"].tiers[0]
	n := raw.total
	s.mu.Unlock()
	if n > 15*60+chunkPoints {
		t.Fatalf("raw tier holds %d points, retention is 15m", n)
	}
	if !raw.evicted {
		t.Fatal("raw tier never evicted in 24h")
	}
}

func TestCounterAtBaselineRules(t *testing.T) {
	clk := newClock()
	s := testStore(clk, []Tier{{Res: 0, Retention: time.Hour}})
	t0 := clk.now()
	// Before any sample: 0.
	if v := s.CounterAt("c_total", nil, t0); v != 0 {
		t.Fatalf("empty store CounterAt = %v", v)
	}
	s.Append(t0, "c_total", nil, KindCounter, 100)
	clk.advance(10 * time.Minute)
	s.Append(clk.now(), "c_total", nil, KindCounter, 250)
	// Before the first sample and never evicted: 0.
	if v := s.CounterAt("c_total", nil, t0.Add(-time.Minute)); v != 0 {
		t.Fatalf("pre-birth CounterAt = %v, want 0", v)
	}
	// Between samples: the earlier value.
	if v := s.CounterAt("c_total", nil, t0.Add(5*time.Minute)); v != 100 {
		t.Fatalf("mid CounterAt = %v, want 100", v)
	}
	// At the end: the latest value.
	if v := s.CounterAt("c_total", nil, clk.now()); v != 250 {
		t.Fatalf("end CounterAt = %v, want 250", v)
	}
	// A window's increase is the difference of two baselines.
	if inc := s.CounterAt("c_total", nil, clk.now()) - s.CounterAt("c_total", nil, t0.Add(-time.Minute)); inc != 250 {
		t.Fatalf("increase = %v, want 250", inc)
	}
	if inc := s.CounterAt("c_total", nil, clk.now()) - s.CounterAt("c_total", nil, t0.Add(time.Minute)); inc != 150 {
		t.Fatalf("increase from mid = %v, want 150", inc)
	}
}

// TestDefaultTiersHoldThreeDayBaseline: the SLO's 3d window reads its
// baseline from the coarsest default tier, so a burst must still count
// in a 72h window 72 hours later and age out an hour after that.
func TestDefaultTiersHoldThreeDayBaseline(t *testing.T) {
	clk := newClock()
	s := New(Config{Interval: 10 * time.Second, Now: clk.now})
	scrape := func(d time.Duration, v float64) {
		for end := clk.now().Add(d); clk.now().Before(end); clk.advance(10 * time.Second) {
			s.Append(clk.now(), "bad_total", nil, KindCounter, v)
		}
	}
	scrape(time.Hour, 0)
	before := clk.now().Add(-10 * time.Second) // the last scrape before the burst
	scrape(73*time.Hour+time.Minute, 100)
	inWindow := func(now time.Time) float64 {
		return s.CounterAt("bad_total", nil, now) - s.CounterAt("bad_total", nil, now.Add(-72*time.Hour))
	}
	if got := inWindow(before.Add(72 * time.Hour)); got != 100 {
		t.Fatalf("3d window 72h after the burst counts %v, want 100", got)
	}
	if got := inWindow(before.Add(73 * time.Hour)); got != 0 {
		t.Fatalf("3d window 73h after the burst counts %v, want 0", got)
	}
}

func TestInstantAndRangeQuery(t *testing.T) {
	clk := newClock()
	s := testStore(clk, DefaultTiers())
	start := clk.now()
	for i := 0; i <= 120; i++ {
		s.Append(clk.now(), "wdm_blocked_total", nil, KindCounter, float64(i))
		s.Append(clk.now(), "wdm_active_sessions", map[string]string{"shard": "0"}, KindGauge, float64(100+i))
		clk.advance(time.Second)
	}
	now := clk.now().Add(-time.Second)

	// Instant gauge.
	res, err := s.Query(`wdm_active_sessions{shard="0"}`, QueryOpts{End: now})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
		t.Fatalf("instant query shape: %+v", res.Series)
	}
	if v := res.Series[0].Points[0].V; v != 220 {
		t.Fatalf("instant gauge = %v, want 220", v)
	}

	// Instant rate over a steadily incrementing counter: 1/s.
	res, err = s.Query("rate(wdm_blocked_total[30s])", QueryOpts{End: now})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Series[0].Points[0].V; math.Abs(v-1.0) > 0.05 {
		t.Fatalf("rate = %v, want ~1.0", v)
	}

	// Range query: 2 minutes at 10s steps.
	res, err = s.Query("wdm_blocked_total", QueryOpts{Start: start, End: now, Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("range series = %d, want 1", len(res.Series))
	}
	pts := res.Series[0].Points
	if len(pts) != 13 {
		t.Fatalf("range points = %d, want 13", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].V < pts[i-1].V {
			t.Fatalf("range counter decreased at %d", i)
		}
	}

	// Unknown selector: empty result, no error.
	res, err = s.Query("no_such_series", QueryOpts{End: now})
	if err != nil || len(res.Series) != 0 {
		t.Fatalf("unknown selector: %v %+v", err, res.Series)
	}

	// Malformed expression: error.
	if _, err := s.Query("rate(", QueryOpts{End: now}); err == nil {
		t.Fatal("malformed query accepted")
	}
}

func TestHistogramQuantileQuery(t *testing.T) {
	clk := newClock()
	s := testStore(clk, DefaultTiers())
	bounds := []float64{0.001, 0.01, 0.1}
	counts := []int64{0, 0, 0, 0}
	var sum float64
	for i := 0; i < 60; i++ {
		// 90% of observations land in the first bucket.
		counts[0] += 9
		counts[2]++
		sum += 9*0.0005 + 0.05
		var pw obs.PromWriter
		pw.Histogram("wdm_op_latency_seconds", "test", bounds, counts, sum)
		m, err := obs.ParseProm(bytes.NewReader(pw.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		s.Observe(clk.now(), m)
		clk.advance(time.Second)
	}
	now := clk.now().Add(-time.Second)
	res, err := s.Query("histogram_quantile(0.5, wdm_op_latency_seconds[30s])", QueryOpts{End: now})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(res.Series))
	}
	p50 := res.Series[0].Points[0].V
	if p50 <= 0 || p50 > 0.001 {
		t.Fatalf("p50 = %v, want within first bucket (0, 0.001]", p50)
	}
	if q := res.Series[0].Labels["quantile"]; q != "0.5" {
		t.Fatalf("quantile label = %q", q)
	}
	res, err = s.Query("histogram_quantile(0.99, wdm_op_latency_seconds[30s])", QueryOpts{End: now})
	if err != nil {
		t.Fatal(err)
	}
	p99 := res.Series[0].Points[0].V
	if p99 <= 0.01 || p99 > 0.1 {
		t.Fatalf("p99 = %v, want within third bucket (0.01, 0.1]", p99)
	}
}

func TestSelfScrapeRoundTrip(t *testing.T) {
	clk := newClock()
	calls := 0
	s := New(Config{
		Interval: time.Second,
		Now:      clk.now,
		Collect: func(w *obs.PromWriter) {
			calls++
			w.Counter("wdm_connect_total", "connects", float64(10*calls))
			w.Gauge("wdm_active_sessions", "active", 5)
		},
	})
	for i := 0; i < 5; i++ {
		if err := s.ScrapeOnce(clk.now()); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second)
	}
	st := s.Stats()
	if st.Scrapes != 5 || st.Series != 2 || st.SamplesTotal != 10 {
		t.Fatalf("stats after 5 scrapes: %+v", st)
	}
	if v := s.CounterAt("wdm_connect_total", nil, clk.now()); v != 50 {
		t.Fatalf("scraped counter = %v, want 50", v)
	}
}

func TestMaxSeriesDropsNew(t *testing.T) {
	clk := newClock()
	s := New(Config{Interval: time.Second, MaxSeries: 3, Now: clk.now})
	for i := 0; i < 10; i++ {
		s.Append(clk.now(), "g", map[string]string{"i": fmt.Sprint(i)}, KindGauge, 1)
	}
	st := s.Stats()
	if st.Series != 3 {
		t.Fatalf("series = %d, want capped at 3", st.Series)
	}
	if st.DroppedSeries != 7 {
		t.Fatalf("dropped = %d, want 7", st.DroppedSeries)
	}
}

func TestPointJSONRoundTrip(t *testing.T) {
	in := []Point{{T: 1700000000123, V: 1.5}, {T: 1700000001123, V: math.NaN()}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[[1700000000123,1.5],[1700000001123,null]]`; string(raw) != want {
		t.Fatalf("marshal = %s, want %s", raw, want)
	}
	var out []Point
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out[0] != in[0] || out[1].T != in[1].T || !math.IsNaN(out[1].V) {
		t.Fatalf("round-trip = %+v", out)
	}
}

func TestMergeTagsShardsAndSums(t *testing.T) {
	mk := func(vals ...float64) *QueryResult {
		ser := Series{Name: "wdm_blocked_total"}
		for i, v := range vals {
			ser.Points = append(ser.Points, Point{T: int64(1000 * (i + 1)), V: v})
		}
		return &QueryResult{Query: "wdm_blocked_total", StartMs: 1000, EndMs: 3000, StepMs: 1000, Series: []Series{ser}}
	}
	merged := Merge(map[string]*QueryResult{
		"0": mk(1, 2, 3),
		"1": mk(10, 20, 30),
	})
	if merged.Query != "wdm_blocked_total" || merged.StepMs != 1000 {
		t.Fatalf("merged header: %+v", merged)
	}
	if len(merged.Series) != 3 {
		t.Fatalf("merged series = %d, want 2 shards + fleet", len(merged.Series))
	}
	byShard := map[string][]Point{}
	for _, ser := range merged.Series {
		byShard[ser.Labels["shard"]] = ser.Points
	}
	fleet := byShard[FleetShard]
	if len(fleet) != 3 {
		t.Fatalf("fleet points = %d", len(fleet))
	}
	for i, want := range []float64{11, 22, 33} {
		if fleet[i].V != want {
			t.Fatalf("fleet point %d = %v, want %v", i, fleet[i].V, want)
		}
	}
	if len(byShard["0"]) != 3 || byShard["0"][2].V != 3 {
		t.Fatalf("shard 0 series wrong: %+v", byShard["0"])
	}
}

func TestOptsFromValues(t *testing.T) {
	now := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	parse := func(q string) (string, QueryOpts, error) {
		vals, err := parseQueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		return OptsFromValues(vals, now)
	}
	expr, opts, err := parse("query=rate(wdm_blocked_total[30s])&start=-5m&end=now&step=10s")
	if err != nil {
		t.Fatal(err)
	}
	if expr != "rate(wdm_blocked_total[30s])" {
		t.Fatalf("expr = %q", expr)
	}
	if !opts.Start.Equal(now.Add(-5*time.Minute)) || !opts.End.Equal(now) || opts.Step != 10*time.Second {
		t.Fatalf("opts = %+v", opts)
	}
	if _, _, err := parse("start=-5m"); err == nil {
		t.Fatal("missing query accepted")
	}
	_, opts, err = parse("query=x&start=1754049600")
	if err != nil || opts.Start.Unix() != 1754049600 {
		t.Fatalf("unix seconds: %v %v", opts.Start, err)
	}
}

func parseQueryString(q string) (map[string][]string, error) {
	vals := map[string][]string{}
	for _, kv := range strings.Split(q, "&") {
		k, v, _ := strings.Cut(kv, "=")
		vals[k] = append(vals[k], v)
	}
	return vals, nil
}

func TestDumpJSON(t *testing.T) {
	clk := newClock()
	s := testStore(clk, DefaultTiers())
	s.Append(clk.now(), "g", map[string]string{"a": "b"}, KindGauge, 7)
	var buf bytes.Buffer
	if err := s.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stats  Stats `json:"stats"`
		Series []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Kind   string            `json:"kind"`
			Tiers  []struct {
				ResMs  int64   `json:"res_ms"`
				Points []Point `json:"points"`
			} `json:"tiers"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || doc.Series[0].Name != "g" || doc.Series[0].Kind != "gauge" {
		t.Fatalf("dump = %+v", doc.Series)
	}
	if len(doc.Series[0].Tiers) != len(DefaultTiers()) || len(doc.Series[0].Tiers[0].Points) != 1 {
		t.Fatalf("dump tiers = %+v", doc.Series[0].Tiers)
	}
	if doc.Series[0].Tiers[0].Points[0].V != 7 {
		t.Fatalf("dump point = %+v", doc.Series[0].Tiers[0].Points[0])
	}
}
