// Package tsdb is an embedded, stdlib-only time-series store for the
// in-process metrics registry: a self-scraper has the registry write
// its samples into an obs.NewMetricsWriter and appends every one to
// per-series delta-encoded ring buffers with downsampling tiers (raw →
// 10s → 1m → 10m by default), so a single process retains days of
// queryable history under a memory ceiling proven by test. On top of
// the store sit a small query engine (label selectors, instant and
// range queries, rate()/increase() over counters, quantile-from-
// histogram derivation through obs.BucketQuantile — query.go) and an
// alerting rules engine with threshold and absence forms (alert.go).
// The serving controller's SLO view (internal/obs/slo) reads its
// sliding-window baselines with CounterAt — the same cumulative-counter
// baseline rule rate() and increase() apply — so the repo has exactly
// one windowing implementation.
package tsdb

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Kind classifies a series for query semantics: counters are cumulative
// (rate()/increase() apply), gauges are point-in-time.
type Kind uint8

const (
	KindGauge Kind = iota
	KindCounter
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Tier is one retention tier. Res is the downsampling window: within
// one window the tier keeps the window's last sample (cumulative
// counters and histogram buckets stay exact — the last sample of a
// window IS the cumulative total at window end). Res 0 keeps every
// observed sample (the raw tier). Retention bounds how far back the
// tier reaches; older chunks are evicted.
type Tier struct {
	Res       time.Duration
	Retention time.Duration
}

// DefaultTiers is the shipped raw → 10s → 1m → 10m ladder: 15 minutes
// of every scrape, 4 hours at 10s, 24 hours at 1m, and 72 hours at 10m
// — the SLO's longest (3d) window needs a baseline that old.
func DefaultTiers() []Tier {
	return []Tier{
		{Res: 0, Retention: 15 * time.Minute},
		{Res: 10 * time.Second, Retention: 4 * time.Hour},
		{Res: time.Minute, Retention: 24 * time.Hour},
		{Res: 10 * time.Minute, Retention: 72 * time.Hour},
	}
}

// Config configures a Store. The zero value of every field has a
// usable default except Collect, without which ScrapeOnce/Run are
// inert (Observe/Append still work, which is how tests feed a store).
type Config struct {
	// Interval is the self-scrape cadence (and the raw tier's expected
	// sample spacing, which sizes its ring). 0 means 1s.
	Interval time.Duration
	// Tiers is the retention ladder; nil means DefaultTiers().
	Tiers []Tier
	// MaxSeries caps distinct series; samples for new series beyond the
	// cap are dropped (counted in Stats). 0 means 2048.
	MaxSeries int
	// Collect writes the registry to scrape into the writer it is
	// handed, a metrics writer (obs.NewMetricsWriter) whose samples the
	// store ingests as values; no text is rendered or parsed.
	Collect func(*obs.PromWriter)
	// Now injects a clock for tests. nil means time.Now.
	Now func() time.Time
	// Logger receives scrape errors. nil means slog.Default.
	Logger *slog.Logger
}

// seriesTier is one tier's state for one series: the chunk ring plus
// the pending (not yet flushed) last sample of the current window.
type seriesTier struct {
	res       int64 // downsample window ms; 0 = raw
	maxPoints int
	chunks    []*chunk
	total     int
	evicted   bool
	pendT     int64
	pendV     float64
	pendW     int64
	hasPend   bool
}

func (st *seriesTier) appendPoint(t int64, v float64) {
	if len(st.chunks) == 0 || st.chunks[len(st.chunks)-1].full() {
		st.chunks = append(st.chunks, &chunk{})
	}
	st.chunks[len(st.chunks)-1].append(t, v)
	st.total++
	for len(st.chunks) > 1 && st.total-st.chunks[0].n >= st.maxPoints {
		st.total -= st.chunks[0].n
		st.chunks = st.chunks[1:]
		st.evicted = true
	}
}

// observe routes one sample through the tier's downsampling window.
func (st *seriesTier) observe(t int64, v float64) {
	if st.res <= 0 {
		st.appendPoint(t, v)
		return
	}
	w := t / st.res
	if st.hasPend && w != st.pendW {
		st.appendPoint(st.pendT, st.pendV)
	}
	st.pendT, st.pendV, st.pendW, st.hasPend = t, v, w, true
}

// first returns the oldest retained point (the pending sample when no
// chunk has been written yet).
func (st *seriesTier) first() (point, bool) {
	if len(st.chunks) > 0 && st.chunks[0].n > 0 {
		return point{st.chunks[0].firstT, st.chunks[0].firstV}, true
	}
	if st.hasPend {
		return point{st.pendT, st.pendV}, true
	}
	return point{}, false
}

// last returns the newest retained point.
func (st *seriesTier) last() (point, bool) {
	if st.hasPend {
		return point{st.pendT, st.pendV}, true
	}
	for i := len(st.chunks) - 1; i >= 0; i-- {
		if c := st.chunks[i]; c.n > 0 {
			return point{c.lastT, c.lastV}, true
		}
	}
	return point{}, false
}

// lastAtOrBefore returns the newest point with timestamp ≤ t.
func (st *seriesTier) lastAtOrBefore(t int64) (point, bool) {
	if st.hasPend && st.pendT <= t {
		return point{st.pendT, st.pendV}, true
	}
	for i := len(st.chunks) - 1; i >= 0; i-- {
		c := st.chunks[i]
		if c.n == 0 || c.firstT > t {
			continue
		}
		best := point{c.firstT, c.firstV}
		c.iter(func(pt int64, pv float64) bool {
			if pt > t {
				return false
			}
			best = point{pt, pv}
			return true
		})
		return best, true
	}
	return point{}, false
}

// scan calls fn for every retained point with from ≤ t ≤ to, oldest
// first, the pending sample included.
func (st *seriesTier) scan(from, to int64, fn func(t int64, v float64)) {
	for _, c := range st.chunks {
		if c.n == 0 || c.lastT < from || c.firstT > to {
			continue
		}
		c.iter(func(t int64, v float64) bool {
			if t > to {
				return false
			}
			if t >= from {
				fn(t, v)
			}
			return true
		})
	}
	if st.hasPend && st.pendT >= from && st.pendT <= to {
		fn(st.pendT, st.pendV)
	}
}

func (st *seriesTier) bytes() int {
	n := 96
	for _, c := range st.chunks {
		n += c.bytes()
	}
	return n
}

// series is one named+labeled sample stream across every tier.
type series struct {
	name   string
	labels map[string]string
	kind   Kind
	tiers  []*seriesTier
}

// tierForTime picks the finest tier able to answer at time t: the
// first tier that still retains a point at or before t, or that has
// never evicted (and therefore holds its complete history).
func (sr *series) tierForTime(t int64) *seriesTier {
	for _, st := range sr.tiers {
		if !st.evicted {
			return st
		}
		if p, ok := st.first(); ok && p.t <= t {
			return st
		}
	}
	return sr.tiers[len(sr.tiers)-1]
}

// Store is the embedded time-series database. All methods are safe for
// concurrent use.
type Store struct {
	cfg      Config
	interval time.Duration
	tiers    []Tier
	logger   *slog.Logger

	mu     sync.Mutex
	series map[string]*series

	nSeries  atomic.Int64
	nSamples atomic.Uint64
	nScrapes atomic.Uint64
	nDropped atomic.Uint64
	scrapeNs atomic.Int64
}

// New builds a Store; see Config for defaults.
func New(cfg Config) *Store {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.MaxSeries <= 0 {
		cfg.MaxSeries = 2048
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	tiers := cfg.Tiers
	if len(tiers) == 0 {
		tiers = DefaultTiers()
	}
	lg := cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	return &Store{
		cfg:      cfg,
		interval: cfg.Interval,
		tiers:    tiers,
		logger:   lg,
		series:   make(map[string]*series),
	}
}

// Interval reports the configured scrape cadence.
func (s *Store) Interval() time.Duration { return s.interval }

func (s *Store) now() time.Time { return s.cfg.Now() }

func (s *Store) newSeries(name string, labels map[string]string, kind Kind) *series {
	sr := &series{name: name, labels: labels, kind: kind}
	for _, t := range s.tiers {
		step := t.Res
		if step <= 0 {
			step = s.interval
		}
		mp := int(t.Retention/step) + 1
		if mp < chunkPoints {
			mp = chunkPoints
		}
		sr.tiers = append(sr.tiers, &seriesTier{res: t.Res.Milliseconds(), maxPoints: mp})
	}
	return sr
}

// getLocked returns (creating on demand, respecting MaxSeries) the
// series for one sample identity.
func (s *Store) getLocked(name string, labels map[string]string, kind Kind) *series {
	key := name + "{" + obs.LabelKey(labels) + "}"
	sr, ok := s.series[key]
	if ok {
		return sr
	}
	if len(s.series) >= s.cfg.MaxSeries {
		s.nDropped.Add(1)
		return nil
	}
	lcopy := make(map[string]string, len(labels))
	for k, v := range labels {
		lcopy[k] = v
	}
	sr = s.newSeries(name, lcopy, kind)
	s.series[key] = sr
	s.nSeries.Store(int64(len(s.series)))
	return sr
}

// kindFor classifies one sample of a parsed family.
func kindFor(fam *obs.Family, sampleName string) Kind {
	switch fam.Type {
	case "counter":
		return KindCounter
	case "histogram", "summary":
		if sampleName != fam.Name {
			return KindCounter // _bucket/_sum/_count are cumulative
		}
	}
	return KindGauge
}

// Observe ingests every sample of m (from obs.NewMetricsWriter or a
// parsed exposition) at time at. NaN samples are skipped — they would poison comparisons downstream.
func (s *Store) Observe(at time.Time, m obs.Metrics) {
	ms := at.UnixMilli()
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, fam := range m {
		for i := range fam.Samples {
			sm := &fam.Samples[i]
			if math.IsNaN(sm.Value) {
				continue
			}
			sr := s.getLocked(sm.Name, sm.Labels, kindFor(fam, sm.Name))
			if sr == nil {
				continue
			}
			for _, st := range sr.tiers {
				st.observe(ms, sm.Value)
			}
			n++
		}
	}
	s.nSamples.Add(n)
}

// Append ingests one sample directly, without an exposition
// round-trip: the injection point tests use to build a history on a
// fake clock.
func (s *Store) Append(at time.Time, name string, labels map[string]string, kind Kind, v float64) {
	if math.IsNaN(v) {
		return
	}
	ms := at.UnixMilli()
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.getLocked(name, labels, kind)
	if sr == nil {
		return
	}
	for _, st := range sr.tiers {
		st.observe(ms, v)
	}
	s.nSamples.Add(1)
}

// ScrapeOnce performs one self-scrape: collect the registry's samples
// as values and ingest every one.
func (s *Store) ScrapeOnce(now time.Time) error {
	if s.cfg.Collect == nil {
		return fmt.Errorf("tsdb: no Collect configured")
	}
	start := time.Now()
	m := make(obs.Metrics)
	// Outside the store lock: the collector reads Stats.
	s.cfg.Collect(obs.NewMetricsWriter(m))
	s.Observe(now, m)
	s.nScrapes.Add(1)
	s.scrapeNs.Store(int64(time.Since(start)))
	return nil
}

// Run scrapes on the configured interval until ctx is done, invoking
// afterScrape (when non-nil) after each scrape — the alert engine's
// evaluation hook.
func (s *Store) Run(ctx context.Context, afterScrape func(now time.Time)) {
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			now := s.now()
			if err := s.ScrapeOnce(now); err != nil {
				s.logger.Warn("tsdb scrape failed", "err", err)
				continue
			}
			if afterScrape != nil {
				afterScrape(now)
			}
		}
	}
}

// counterAtLocked implements the cumulative-counter baseline rules:
// the newest sample at or before t; 0 when the series has no sample
// that old and nothing was ever evicted (the counter was born later,
// cumulative value 0 before birth); the oldest retained sample when
// eviction erased the true baseline (an underestimate of elapsed
// increase, never an overestimate).
func counterAtTier(st *seriesTier, t int64) float64 {
	if p, ok := st.lastAtOrBefore(t); ok {
		return p.v
	}
	if st.evicted {
		if p, ok := st.first(); ok {
			return p.v
		}
	}
	return 0
}

func (sr *series) counterAt(t int64) float64 {
	return counterAtTier(sr.tierForTime(t), t)
}

// CounterAt reports the cumulative value of one counter series at time
// at, under the baseline rules above. Missing series read as 0.
func (s *Store) CounterAt(name string, labels map[string]string, at time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[name+"{"+obs.LabelKey(labels)+"}"]
	if sr == nil {
		return 0
	}
	return sr.counterAt(at.UnixMilli())
}

// increaseSeries reports how much one cumulative counter grew over
// (from, to] — the windowing primitive rate() and increase() reduce
// to. In-process series never reset (the store dies with the process),
// so a clamped difference of cumulative values is exact.
func increaseSeries(sr *series, from, to int64) float64 {
	d := sr.counterAt(to) - sr.counterAt(from)
	if d < 0 {
		return 0
	}
	return d
}

// Stats is the store's self-observation snapshot.
type Stats struct {
	Series        int           `json:"series"`
	SamplesTotal  uint64        `json:"samples_total"`
	Scrapes       uint64        `json:"scrapes"`
	DroppedSeries uint64        `json:"dropped_series"`
	LastScrape    time.Duration `json:"last_scrape_ns"`
	Bytes         int           `json:"bytes"`
}

// Stats reports series/sample counts and the approximate retained
// bytes across every tier of every series.
func (s *Store) Stats() Stats {
	st := Stats{
		Series:        int(s.nSeries.Load()),
		SamplesTotal:  s.nSamples.Load(),
		Scrapes:       s.nScrapes.Load(),
		DroppedSeries: s.nDropped.Load(),
		LastScrape:    time.Duration(s.scrapeNs.Load()),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sr := range s.series {
		for _, t := range sr.tiers {
			st.Bytes += t.bytes()
		}
	}
	return st
}

// dumpSeries is one series in the debug dump.
type dumpSeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Tiers  []dumpTier        `json:"tiers"`
}

type dumpTier struct {
	ResMs  int64   `json:"res_ms"`
	Points []Point `json:"points"`
}

// DumpJSON writes every retained point of every series — the
// /v1/debug/tsdb payload and the alert-demo CI artifact.
func (s *Store) DumpJSON(w io.Writer) error {
	s.mu.Lock()
	keys := make([]string, 0, len(s.series))
	for k := range s.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := struct {
		Stats  Stats        `json:"stats"`
		Series []dumpSeries `json:"series"`
	}{}
	for _, k := range keys {
		sr := s.series[k]
		ds := dumpSeries{Name: sr.name, Labels: sr.labels, Kind: sr.kind.String()}
		for _, st := range sr.tiers {
			dt := dumpTier{ResMs: st.res}
			st.scan(math.MinInt64, math.MaxInt64, func(t int64, v float64) {
				dt.Points = append(dt.Points, Point{T: t, V: v})
			})
			ds.Tiers = append(ds.Tiers, dt)
		}
		out.Series = append(out.Series, ds)
	}
	s.mu.Unlock()
	out.Stats = s.Stats()
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
