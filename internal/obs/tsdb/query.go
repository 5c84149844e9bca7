package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// The query language is a deliberately small Prometheus subset:
//
//	wdm_active_sessions                          plain selector (gauge or counter)
//	wdm_phase_seconds_count{phase="route_search"}  with label matchers (exact, subset)
//	rate(wdm_blocked_total[30s])                 per-second counter increase
//	increase(wdm_blocked_total[5m])              absolute counter increase
//	histogram_quantile(0.99, wdm_op_latency_seconds[1m])  quantile from bucket increases
//
// Instant queries evaluate at one timestamp; range queries evaluate at
// every step between start and end. One expression can match many
// series; each becomes one Series in the result.

// Point is one sample in a query result, marshaled compactly as
// [unix_ms, value] (null value for NaN).
type Point struct {
	T int64
	V float64
}

func (p Point) MarshalJSON() ([]byte, error) {
	if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
		return []byte(fmt.Sprintf("[%d,null]", p.T)), nil
	}
	return []byte(fmt.Sprintf("[%d,%s]", p.T, strconv.FormatFloat(p.V, 'g', -1, 64))), nil
}

func (p *Point) UnmarshalJSON(b []byte) error {
	var raw [2]*float64
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	if raw[0] == nil {
		return errors.New("tsdb: point with null timestamp")
	}
	p.T = int64(*raw[0])
	if raw[1] != nil {
		p.V = *raw[1]
	} else {
		p.V = math.NaN()
	}
	return nil
}

// Series is one matched series' evaluated points.
type Series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// QueryResult is the /v1/query wire shape.
type QueryResult struct {
	Query   string   `json:"query"`
	StartMs int64    `json:"start_ms"`
	EndMs   int64    `json:"end_ms"`
	StepMs  int64    `json:"step_ms,omitempty"`
	Series  []Series `json:"series"`
}

// QueryOpts selects instant vs range evaluation. A zero Start means
// instant at End; a zero End means the store's current time.
type QueryOpts struct {
	Start, End time.Time
	Step       time.Duration
}

const maxRangePoints = 10000

// selector is a parsed name{k="v",...} matcher.
type selector struct {
	name   string
	labels map[string]string
}

func (sel *selector) matches(sr *series) bool {
	if sr.name != sel.name {
		return false
	}
	for k, v := range sel.labels {
		if sr.labels[k] != v {
			return false
		}
	}
	return true
}

// compiledExpr is one parsed query expression.
type compiledExpr struct {
	fn     string // "" | "rate" | "increase" | "histogram_quantile"
	q      float64
	sel    selector
	window time.Duration
}

var (
	reSelector = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)\s*(\{[^}]*\})?$`)
	reRange    = regexp.MustCompile(`^(rate|increase)\(\s*(.*?)\s*\[([0-9a-z.]+)\]\s*\)$`)
	reQuantile = regexp.MustCompile(`^histogram_quantile\(\s*([0-9.]+)\s*,\s*(.*?)\s*\[([0-9a-z.]+)\]\s*\)$`)
)

// ValidateExpr reports whether an expression parses — rule files are
// checked at load time, before any store exists.
func ValidateExpr(expr string) error {
	_, err := compile(expr)
	return err
}

// compile parses a query expression.
func compile(expr string) (*compiledExpr, error) {
	expr = strings.TrimSpace(expr)
	if m := reQuantile.FindStringSubmatch(expr); m != nil {
		q, err := strconv.ParseFloat(m[1], 64)
		if err != nil || q < 0 || q > 1 {
			return nil, fmt.Errorf("tsdb: quantile %q out of [0,1]", m[1])
		}
		sel, err := parseSelector(m[2])
		if err != nil {
			return nil, err
		}
		w, err := time.ParseDuration(m[3])
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tsdb: bad window %q", m[3])
		}
		return &compiledExpr{fn: "histogram_quantile", q: q, sel: *sel, window: w}, nil
	}
	if m := reRange.FindStringSubmatch(expr); m != nil {
		sel, err := parseSelector(m[2])
		if err != nil {
			return nil, err
		}
		w, err := time.ParseDuration(m[3])
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tsdb: bad window %q", m[3])
		}
		return &compiledExpr{fn: m[1], sel: *sel, window: w}, nil
	}
	sel, err := parseSelector(expr)
	if err != nil {
		return nil, err
	}
	return &compiledExpr{sel: *sel}, nil
}

// parseSelector parses name{k="v",...}.
func parseSelector(in string) (*selector, error) {
	m := reSelector.FindStringSubmatch(strings.TrimSpace(in))
	if m == nil {
		return nil, fmt.Errorf("tsdb: malformed selector %q", in)
	}
	sel := &selector{name: m[1], labels: map[string]string{}}
	if m[2] == "" {
		return sel, nil
	}
	body := strings.TrimSpace(m[2][1 : len(m[2])-1])
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, fmt.Errorf("tsdb: selector %q: missing '='", in)
		}
		name := strings.TrimSpace(body[:eq])
		rest := strings.TrimSpace(body[eq+1:])
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("tsdb: selector %q: label %s: unquoted value", in, name)
		}
		end := 1
		for end < len(rest) {
			if rest[end] == '\\' {
				end += 2
				continue
			}
			if rest[end] == '"' {
				break
			}
			end++
		}
		if end >= len(rest) {
			return nil, fmt.Errorf("tsdb: selector %q: label %s: unterminated value", in, name)
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, fmt.Errorf("tsdb: selector %q: label %s: %w", in, name, err)
		}
		sel.labels[name] = val
		body = strings.TrimSpace(rest[end+1:])
		body = strings.TrimPrefix(body, ",")
		body = strings.TrimSpace(body)
	}
	return sel, nil
}

// Query evaluates an expression. Range queries pick, per series, the
// finest tier whose retention still covers the start of the range.
func (s *Store) Query(expr string, opts QueryOpts) (*QueryResult, error) {
	ce, err := compile(expr)
	if err != nil {
		return nil, err
	}
	end := opts.End
	if end.IsZero() {
		end = s.now()
	}
	start := opts.Start
	instant := start.IsZero()
	if instant {
		start = end
	}
	if end.Before(start) {
		return nil, fmt.Errorf("tsdb: end %s before start %s", end.Format(time.RFC3339), start.Format(time.RFC3339))
	}
	step := opts.Step
	if !instant {
		if step <= 0 {
			step = end.Sub(start) / 240
		}
		if step < time.Second {
			step = time.Second
		}
		if end.Sub(start)/step > maxRangePoints {
			return nil, fmt.Errorf("tsdb: range/step yields more than %d points", maxRangePoints)
		}
	}
	res := &QueryResult{Query: expr, StartMs: start.UnixMilli(), EndMs: end.UnixMilli()}
	if !instant {
		res.StepMs = step.Milliseconds()
	}
	steps := []int64{end.UnixMilli()}
	if !instant {
		steps = steps[:0]
		for t := start; !t.After(end); t = t.Add(step) {
			steps = append(steps, t.UnixMilli())
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if ce.fn == "histogram_quantile" {
		res.Series = s.quantileLocked(ce, steps)
		return res, nil
	}
	for _, sr := range s.matchLocked(&ce.sel) {
		out := Series{Name: sr.name, Labels: sr.labels, Points: make([]Point, 0, len(steps))}
		tier := sr.tierForTime(steps[0])
		switch ce.fn {
		case "rate", "increase":
			wms := ce.window.Milliseconds()
			for _, t := range steps {
				if _, ok := tier.first(); !ok {
					continue
				}
				v := increaseSeries(sr, t-wms, t)
				if ce.fn == "rate" {
					v /= ce.window.Seconds()
				}
				out.Points = append(out.Points, Point{T: t, V: v})
			}
		default:
			look := s.lookback(tier)
			for _, t := range steps {
				p, ok := tier.lastAtOrBefore(t)
				if !ok || t-p.t > look {
					continue
				}
				out.Points = append(out.Points, Point{T: t, V: p.v})
			}
		}
		if len(out.Points) > 0 {
			res.Series = append(res.Series, out)
		}
	}
	sortSeries(res.Series)
	return res, nil
}

// lookback is how stale a sample may be and still answer an instant
// lookup on a tier — five sample spacings, at least 15s.
func (s *Store) lookback(tier *seriesTier) int64 {
	step := tier.res
	if iv := s.interval.Milliseconds(); iv > step {
		step = iv
	}
	look := 5 * step
	if look < 15000 {
		look = 15000
	}
	return look
}

// LastSampleTime reports the newest sample timestamp across series
// matching a plain selector expression — the absence-form alert
// primitive, which must see the true last sample rather than an
// instant query's staleness-bounded view.
func (s *Store) LastSampleTime(expr string) (time.Time, bool) {
	ce, err := compile(expr)
	if err != nil || ce.fn != "" {
		return time.Time{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var best int64
	found := false
	for _, sr := range s.matchLocked(&ce.sel) {
		if p, ok := sr.tiers[0].last(); ok && (!found || p.t > best) {
			best, found = p.t, true
		}
	}
	if !found {
		return time.Time{}, false
	}
	return time.UnixMilli(best), true
}

func (s *Store) matchLocked(sel *selector) []*series {
	var out []*series
	for _, sr := range s.series {
		if sel.matches(sr) {
			out = append(out, sr)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return obs.LabelKey(out[i].labels) < obs.LabelKey(out[j].labels)
	})
	return out
}

// quantileLocked derives a quantile series from a histogram family's
// _bucket counters: per step, the increase of every cumulative bucket
// over the window, then linear interpolation within the bucket that
// crosses the target rank (Prometheus histogram_quantile semantics).
func (s *Store) quantileLocked(ce *compiledExpr, steps []int64) []Series {
	bsel := selector{name: ce.sel.name + "_bucket", labels: ce.sel.labels}
	// Group bucket series by identity minus le.
	groups := map[string][]*series{}
	var keys []string
	for _, sr := range s.matchLocked(&bsel) {
		key := labelKeyWithout(sr.labels, "le")
		if _, ok := groups[key]; !ok {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], sr)
	}
	sort.Strings(keys)
	wms := ce.window.Milliseconds()
	var out []Series
	for _, key := range keys {
		buckets := groups[key]
		var bs []bucketSeries
		for _, sr := range buckets {
			le, err := strconv.ParseFloat(sr.labels["le"], 64) // "+Inf" parses
			if err != nil {
				continue
			}
			bs = append(bs, bucketSeries{le, sr})
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		if len(bs) == 0 {
			continue
		}
		labels := map[string]string{}
		for k, v := range bs[0].sr.labels {
			if k != "le" {
				labels[k] = v
			}
		}
		labels["quantile"] = strconv.FormatFloat(ce.q, 'g', -1, 64)
		ser := Series{Name: ce.sel.name, Labels: labels, Points: make([]Point, 0, len(steps))}
		les := make([]float64, len(bs))
		for i, b := range bs {
			les[i] = b.le
		}
		for _, t := range steps {
			incs := make([]float64, len(bs))
			for i, b := range bs {
				incs[i] = increaseSeries(b.sr, t-wms, t)
			}
			if v, ok := obs.BucketQuantile(ce.q, les, incs); ok {
				ser.Points = append(ser.Points, Point{T: t, V: v})
			}
		}
		if len(ser.Points) > 0 {
			out = append(out, ser)
		}
	}
	return out
}

// bucketSeries pairs one histogram bucket series with its parsed upper
// bound.
type bucketSeries struct {
	le float64
	sr *series
}

func labelKeyWithout(labels map[string]string, drop string) string {
	c := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != drop {
			c[k] = v
		}
	}
	return obs.LabelKey(c)
}

func sortSeries(ss []Series) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Name != ss[j].Name {
			return ss[i].Name < ss[j].Name
		}
		return obs.LabelKey(ss[i].Labels) < obs.LabelKey(ss[j].Labels)
	})
}

// FleetShard labels the synthetic summed series Merge adds on top of
// the per-shard ones.
const FleetShard = "fleet"

// Merge combines per-shard results of the SAME query (identical
// start/end/step) into one: every input series tagged with its shard
// label, plus, per distinct (name, labels) identity, a synthetic
// shard="fleet" series holding the pointwise sum across shards.
func Merge(byShard map[string]*QueryResult) *QueryResult {
	shards := make([]string, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Strings(shards)
	out := &QueryResult{}
	type acc struct {
		name   string
		labels map[string]string
		sums   map[int64]float64
	}
	fleet := map[string]*acc{}
	var fleetKeys []string
	for _, shard := range shards {
		r := byShard[shard]
		if r == nil {
			continue
		}
		if out.Query == "" {
			out.Query, out.StartMs, out.EndMs, out.StepMs = r.Query, r.StartMs, r.EndMs, r.StepMs
		}
		for _, ser := range r.Series {
			labeled := make(map[string]string, len(ser.Labels)+1)
			for k, v := range ser.Labels {
				labeled[k] = v
			}
			labeled["shard"] = shard
			out.Series = append(out.Series, Series{Name: ser.Name, Labels: labeled, Points: ser.Points})

			key := ser.Name + "{" + labelKeyWithout(ser.Labels, "shard") + "}"
			a, ok := fleet[key]
			if !ok {
				base := make(map[string]string, len(ser.Labels))
				for k, v := range ser.Labels {
					if k != "shard" {
						base[k] = v
					}
				}
				a = &acc{name: ser.Name, labels: base, sums: map[int64]float64{}}
				fleet[key] = a
				fleetKeys = append(fleetKeys, key)
			}
			for _, p := range ser.Points {
				if !math.IsNaN(p.V) {
					a.sums[p.T] += p.V
				}
			}
		}
	}
	sort.Strings(fleetKeys)
	for _, key := range fleetKeys {
		a := fleet[key]
		labels := a.labels
		labels["shard"] = FleetShard
		ts := make([]int64, 0, len(a.sums))
		for t := range a.sums {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		ser := Series{Name: a.name, Labels: labels, Points: make([]Point, 0, len(ts))}
		for _, t := range ts {
			ser.Points = append(ser.Points, Point{T: t, V: a.sums[t]})
		}
		out.Series = append(out.Series, ser)
	}
	return out
}

// OptsFromValues parses the /v1/query URL parameters shared by the
// single-node and federated handlers: query (required), start/end
// (unix seconds, RFC3339, or a negative duration like "-5m" relative
// to now), step (Go duration). Absent start means instant.
func OptsFromValues(v url.Values, now time.Time) (string, QueryOpts, error) {
	expr := strings.TrimSpace(v.Get("query"))
	if expr == "" {
		return "", QueryOpts{}, errors.New("missing query parameter")
	}
	opts := QueryOpts{}
	var err error
	if raw := v.Get("start"); raw != "" {
		if opts.Start, err = parseTimeParam(raw, now); err != nil {
			return "", QueryOpts{}, fmt.Errorf("start: %w", err)
		}
	}
	if raw := v.Get("end"); raw != "" {
		if opts.End, err = parseTimeParam(raw, now); err != nil {
			return "", QueryOpts{}, fmt.Errorf("end: %w", err)
		}
	}
	if raw := v.Get("step"); raw != "" {
		if opts.Step, err = time.ParseDuration(raw); err != nil {
			return "", QueryOpts{}, fmt.Errorf("step: %w", err)
		}
	}
	return expr, opts, nil
}

// parseTimeParam accepts unix seconds (float), RFC3339, "now", or a
// signed duration offset from now ("-5m").
func parseTimeParam(raw string, now time.Time) (time.Time, error) {
	if raw == "now" {
		return now, nil
	}
	if sec, err := strconv.ParseFloat(raw, 64); err == nil {
		s, frac := math.Modf(sec)
		return time.Unix(int64(s), int64(frac*1e9)), nil
	}
	if d, err := time.ParseDuration(raw); err == nil {
		return now.Add(d), nil
	}
	if t, err := time.Parse(time.RFC3339, raw); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("unparseable time %q (want unix seconds, RFC3339, or duration offset)", raw)
}
