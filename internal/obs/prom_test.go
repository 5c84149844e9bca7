package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestPromRoundTrip writes a representative exposition — counters,
// labeled gauges, a histogram — and parses it back, asserting every
// value survives.
func TestPromRoundTrip(t *testing.T) {
	var w PromWriter
	w.Counter("wdm_connect_total", "Successful connects.", 42)
	w.Counter("wdm_fabric_routed_total", "Per-fabric routed.", 10, Label{"fabric", "0"})
	w.Counter("wdm_fabric_routed_total", "Per-fabric routed.", 12, Label{"fabric", "1"})
	w.Gauge("wdm_link_busy_ratio", "Occupancy.", 0.25, Label{"fabric", "0"}, Label{"stage", "in"})
	w.Histogram("wdm_op_latency_seconds", "Latency.",
		[]float64{0.001, 0.01, 0.1}, []int64{5, 3, 1, 2}, 0.456, Label{"op", "connect"})

	m, err := ParseProm(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("ParseProm: %v\nexposition:\n%s", err, w.Bytes())
	}

	if v, ok := m.Value("wdm_connect_total", nil); !ok || v != 42 {
		t.Fatalf("wdm_connect_total = %v, %v; want 42", v, ok)
	}
	if v, ok := m.Value("wdm_fabric_routed_total", map[string]string{"fabric": "1"}); !ok || v != 12 {
		t.Fatalf("fabric 1 routed = %v, %v; want 12", v, ok)
	}
	if v, ok := m.Value("wdm_link_busy_ratio", map[string]string{"stage": "in"}); !ok || v != 0.25 {
		t.Fatalf("busy ratio = %v, %v; want 0.25", v, ok)
	}

	fam := m["wdm_op_latency_seconds"]
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("histogram family missing or mistyped: %+v", fam)
	}
	// Cumulative buckets: 5, 8, 9, 11; count 11; sum 0.456.
	wantBuckets := map[string]float64{"0.001": 5, "0.01": 8, "0.1": 9, "+Inf": 11}
	for le, want := range wantBuckets {
		got, ok := m.Value("wdm_op_latency_seconds_bucket", map[string]string{"op": "connect", "le": le})
		if !ok || got != want {
			t.Fatalf("bucket le=%s = %v, %v; want %v", le, got, ok, want)
		}
	}
	if v, ok := m.Value("wdm_op_latency_seconds_count", map[string]string{"op": "connect"}); !ok || v != 11 {
		t.Fatalf("count = %v, %v; want 11", v, ok)
	}
	if v, ok := m.Value("wdm_op_latency_seconds_sum", map[string]string{"op": "connect"}); !ok || v != 0.456 {
		t.Fatalf("sum = %v, %v; want 0.456", v, ok)
	}
}

// TestPromEscaping pushes hostile label values and help text through
// the round trip.
func TestPromEscaping(t *testing.T) {
	var w PromWriter
	hostile := `quote " backslash \ newline` + "\n" + `end`
	w.Gauge("esc_metric", `help with \ and`+"\n"+`newline`, 1, Label{"v", hostile})
	m, err := ParseProm(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("ParseProm: %v\nexposition:\n%q", err, w.Bytes())
	}
	if v, ok := m.Value("esc_metric", map[string]string{"v": hostile}); !ok || v != 1 {
		t.Fatalf("escaped label did not round-trip: %+v", m["esc_metric"])
	}
	if got, want := m["esc_metric"].Help, `help with \ and`+"\n"+`newline`; got != want {
		t.Fatalf("help = %q, want %q", got, want)
	}
	// The exposition itself must stay line-oriented despite the newline.
	if got := bytes.Count(w.Bytes(), []byte("esc_metric{")); got != 1 {
		t.Fatalf("sample split across lines: %d occurrences\n%s", got, w.Bytes())
	}
}

// TestPromHeaderOnce: HELP/TYPE emitted once per family however many
// samples it has.
func TestPromHeaderOnce(t *testing.T) {
	var w PromWriter
	for i := 0; i < 3; i++ {
		w.Counter("multi_total", "Help.", float64(i), Label{"i", string(rune('a' + i))})
	}
	text := string(w.Bytes())
	if got := strings.Count(text, "# TYPE multi_total counter"); got != 1 {
		t.Fatalf("TYPE emitted %d times, want 1:\n%s", got, text)
	}
	if got := strings.Count(text, "# HELP"); got != 1 {
		t.Fatalf("HELP emitted %d times, want 1:\n%s", got, text)
	}
}

// TestPromInfinity: +Inf formats and parses.
func TestPromInfinity(t *testing.T) {
	var w PromWriter
	w.Gauge("inf_metric", "h", math.Inf(1))
	m, err := ParseProm(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("inf_metric", nil); !ok || !math.IsInf(v, 1) {
		t.Fatalf("inf value = %v, %v", v, ok)
	}
}

// TestParseRejectsMalformed: the parser is strict enough to be a
// format validator, not just a scraper of the happy path.
func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct{ name, text string }{
		{"no type header", "orphan_metric 1\n"},
		{"bad label syntax", "# TYPE m gauge\nm{x=unquoted} 1\n"},
		{"unterminated label", "# TYPE m gauge\nm{x=\"open} 1\n"},
		{"bad value", "# TYPE m gauge\nm notanumber\n"},
		{"bad metric name", "# TYPE m gauge\n1m 2\n"},
		{"decreasing histogram", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n"},
		{"missing inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\nh_sum 1\n"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 6\nh_sum 1\n"},
		{"type redeclared", "# TYPE m gauge\n# TYPE m counter\nm 1\n"},
		{"repeated series", "# TYPE m gauge\nm{a=\"1\",b=\"2\"} 1\nm{b=\"2\",a=\"1\"} 2\n"},
		{"repeated histogram sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_sum 2\nh_count 5\n"},
	}
	for _, tc := range cases {
		if _, err := ParseProm(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", tc.name, tc.text)
		}
	}
}

// TestMetricsWriterMatchesParse: a metrics writer holds exactly what
// ParseProm reads back from the text the same calls render — family
// names, types and help, sample names, label maps and values — so the
// in-process history loses nothing by skipping the text.
func TestMetricsWriterMatchesParse(t *testing.T) {
	write := func(w *PromWriter) {
		w.Counter("wdm_connect_total", "Successful connects.", 42)
		w.Gauge("wdm_link_busy_ratio", "Occupancy.", 0.25, Label{"fabric", "0"}, Label{"stage", "in"})
		w.Gauge("wdm_link_busy_ratio", "Occupancy.", 0.5, Label{"fabric", "1"}, Label{"stage", "in"})
		w.Gauge("esc_metric", `help with \ and`+"\n"+`newline`, math.Inf(+1),
			Label{"v", `quote " backslash \ newline` + "\n" + `end`})
		for _, op := range []string{"connect", "branch"} {
			w.Histogram("wdm_op_latency_seconds", "Latency.",
				[]float64{0.001, 0.01, 0.1}, []int64{5, 3, 1, 2}, 0.456, Label{"op", op})
		}
	}
	var text PromWriter
	write(&text)
	want, err := ParseProm(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	got := make(Metrics)
	write(NewMetricsWriter(got))
	if len(got) != len(want) {
		t.Fatalf("metrics writer has %d families, parse %d", len(got), len(want))
	}
	for name, wf := range want {
		if gf := got[name]; gf == nil || !reflect.DeepEqual(*gf, *wf) {
			t.Errorf("family %s:\n metrics writer %+v\n parse          %+v", name, gf, wf)
		}
	}
	if len(text.Bytes()) == 0 || len(NewMetricsWriter(got).Bytes()) != 0 {
		t.Error("a metrics writer must render no text")
	}
}

// TestHistogramPanicsOnShapeMismatch documents the writer's contract:
// counts must be exactly one longer than bounds.
func TestHistogramPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bounds/counts mismatch")
		}
	}()
	var w PromWriter
	w.Histogram("h", "h", []float64{1, 2}, []int64{1, 2}, 0)
}
