// Package obs is the serving path's observability toolkit: a hand-rolled
// Prometheus text-exposition writer and a matching minimal parser (both
// stdlib-only, round-trip tested against each other), the one
// bucket-quantile estimator every histogram reader shares
// (BucketQuantile), plus an HTTP middleware that emits one structured
// log line per request, keyed by its trace id. switchd uses the writer for
// GET /metrics. An in-process reader of the registry — the metrics
// history — takes the same samples as values through NewMetricsWriter;
// the parser is for expositions that cross a process boundary (fleet
// federation, wdmtop) and for tests.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type served
// with the format this package writes.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ContentTypeOpenMetrics is served when the exposition carries
// exemplars (OpenMetrics syntax; classic 0.0.4 parsers reject the
// trailing "# {...}" exemplar clause, so exemplars are opt-in).
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Label is one label name/value pair on a sample.
type Label struct {
	Name, Value string
}

// PromWriter accumulates metric families in Prometheus text exposition
// format (version 0.0.4). HELP/TYPE headers are emitted once per
// family, on the family's first sample; callers therefore write all
// samples of one family together (interleaving families is legal for
// this package's parser but rejected by real Prometheus scrapers).
// The zero value is ready to use.
type PromWriter struct {
	buf       bytes.Buffer
	seen      map[string]bool
	exemplars bool

	// into, when set (NewMetricsWriter), receives every family and
	// sample as values instead of text; cur is the family being written.
	into Metrics
	cur  *Family
}

// NewMetricsWriter returns a writer that fills m instead of rendering
// text: m receives exactly what ParseProm returns for the exposition
// the same calls would write — family name, type and help, and one
// Sample per sample line with its full name, label map and value —
// without exemplars. It is how an in-process reader of a registry (the
// metrics history) takes its samples without a render-and-parse round
// trip.
func NewMetricsWriter(m Metrics) *PromWriter { return &PromWriter{into: m} }

// Exemplar references a recent concrete observation — typically by
// trace id — from a histogram bucket, in OpenMetrics exemplar syntax:
//
//	name_bucket{le="0.001"} 5 # {trace_id="4bf9..."} 0.00042 1e9
//
// The zero Exemplar is "none".
type Exemplar struct {
	// Labels identify the referenced observation (conventionally a
	// single trace_id label).
	Labels []Label
	// Value is the referenced observation's value.
	Value float64
	// Ts is the observation's unix timestamp in seconds; 0 omits it.
	Ts float64
}

// SetExemplars switches the writer into OpenMetrics mode: histogram
// bucket samples written through HistogramE carry their exemplars and
// Bytes/WriteTo append the OpenMetrics "# EOF" trailer. Off by default
// — classic 0.0.4 scrapers reject exemplar clauses.
func (w *PromWriter) SetExemplars(on bool) { w.exemplars = on }

// Counter writes one sample of a counter family.
func (w *PromWriter) Counter(name, help string, v float64, labels ...Label) {
	w.header(name, help, "counter")
	w.sample(name, labels, v)
}

// Gauge writes one sample of a gauge family.
func (w *PromWriter) Gauge(name, help string, v float64, labels ...Label) {
	w.header(name, help, "gauge")
	w.sample(name, labels, v)
}

// Histogram writes one complete histogram series: cumulative _bucket
// samples for every upper bound plus the mandatory le="+Inf" bucket,
// then _sum and _count. bounds are the finite bucket upper bounds in
// ascending order; counts holds the NON-cumulative per-bucket counts
// and must be one longer than bounds, its last element counting
// observations above the largest bound. sum is the sum of all observed
// values. labels are attached to every sample of the series.
func (w *PromWriter) Histogram(name, help string, bounds []float64, counts []int64, sum float64, labels ...Label) {
	w.HistogramE(name, help, bounds, counts, sum, nil, labels...)
}

// HistogramE is Histogram with per-bucket exemplars: exemplars, when
// non-nil, must be one per count (len(bounds)+1, the last for the
// overflow bucket); zero-value entries mean "no exemplar". Exemplars
// are emitted only in OpenMetrics mode (SetExemplars) — otherwise
// HistogramE degrades to Histogram, so one assembly path serves both
// content types.
func (w *PromWriter) HistogramE(name, help string, bounds []float64, counts []int64, sum float64, exemplars []Exemplar, labels ...Label) {
	if len(counts) != len(bounds)+1 {
		panic(fmt.Sprintf("obs: histogram %s: %d counts for %d bounds (want bounds+1)", name, len(counts), len(bounds)))
	}
	if exemplars != nil && len(exemplars) != len(counts) {
		panic(fmt.Sprintf("obs: histogram %s: %d exemplars for %d buckets (want one per bucket)", name, len(exemplars), len(counts)))
	}
	w.header(name, help, "histogram")
	exemplar := func(i int) *Exemplar {
		if !w.exemplars || exemplars == nil || len(exemplars[i].Labels) == 0 {
			return nil
		}
		return &exemplars[i]
	}
	var cum int64
	for i, ub := range bounds {
		cum += counts[i]
		w.sampleE(name+"_bucket", append(labels[:len(labels):len(labels)], Label{"le", formatFloat(ub)}), float64(cum), exemplar(i))
	}
	cum += counts[len(bounds)]
	w.sampleE(name+"_bucket", append(labels[:len(labels):len(labels)], Label{"le", "+Inf"}), float64(cum), exemplar(len(bounds)))
	w.sample(name+"_sum", labels, sum)
	w.sample(name+"_count", labels, float64(cum))
}

// header emits the HELP/TYPE preamble once per family.
func (w *PromWriter) header(name, help, typ string) {
	if w.into != nil {
		if w.cur = w.into[name]; w.cur == nil {
			w.cur = &Family{Name: name, Help: help, Type: typ}
			w.into[name] = w.cur
		}
		return
	}
	if w.seen == nil {
		w.seen = make(map[string]bool)
	}
	if w.seen[name] {
		return
	}
	w.seen[name] = true
	fmt.Fprintf(&w.buf, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(&w.buf, "# TYPE %s %s\n", name, typ)
}

// sample emits one "name{labels} value" line.
func (w *PromWriter) sample(name string, labels []Label, v float64) {
	w.sampleE(name, labels, v, nil)
}

// sampleE emits one sample line, with an OpenMetrics exemplar clause
// appended when ex is non-nil.
func (w *PromWriter) sampleE(name string, labels []Label, v float64, ex *Exemplar) {
	if w.into != nil {
		lm := make(map[string]string, len(labels))
		for _, l := range labels {
			lm[l.Name] = l.Value
		}
		w.cur.Samples = append(w.cur.Samples, Sample{Name: name, Labels: lm, Value: v})
		return
	}
	w.buf.WriteString(name)
	w.writeLabels(labels)
	w.buf.WriteByte(' ')
	w.buf.WriteString(formatFloat(v))
	if ex != nil {
		w.buf.WriteString(" # ")
		w.writeLabels(ex.Labels)
		w.buf.WriteByte(' ')
		w.buf.WriteString(formatFloat(ex.Value))
		if ex.Ts != 0 {
			w.buf.WriteByte(' ')
			w.buf.WriteString(formatFloat(ex.Ts))
		}
	}
	w.buf.WriteByte('\n')
}

func (w *PromWriter) writeLabels(labels []Label) {
	if len(labels) == 0 {
		return
	}
	w.buf.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			w.buf.WriteByte(',')
		}
		// %q escapes exactly what the exposition format requires of
		// a label value: backslash, double quote, newline.
		fmt.Fprintf(&w.buf, "%s=%q", l.Name, l.Value)
	}
	w.buf.WriteByte('}')
}

// Bytes returns the exposition accumulated so far (without the
// OpenMetrics EOF trailer — see WriteTo).
func (w *PromWriter) Bytes() []byte { return w.buf.Bytes() }

// WriteTo writes the exposition to wr. In OpenMetrics mode
// (SetExemplars) the mandatory "# EOF" trailer is appended.
func (w *PromWriter) WriteTo(wr io.Writer) (int64, error) {
	n, err := wr.Write(w.buf.Bytes())
	if err != nil || !w.exemplars {
		return int64(n), err
	}
	n2, err := io.WriteString(wr, "# EOF\n")
	return int64(n + n2), err
}

// formatFloat renders a sample value or le bound the way Prometheus
// expects: shortest round-trip decimal, with infinities spelled +Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// SortLabels orders a label set by name — handy for callers that
// assemble labels dynamically and want deterministic exposition.
func SortLabels(labels []Label) {
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
}
