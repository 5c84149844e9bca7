package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Cluster metrics federation: MergeProm folds the parsed /metrics
// expositions of every shard into one fleet-wide exposition.
//
// Merge semantics follow what the series mean:
//
//   - counters and histograms are additive — the fleet total is the sum
//     across shards (histograms are summed bucket-wise over the union
//     of bucket bounds, with per-shard carry-forward so cumulative
//     counts stay monotone even when shards expose different bounds);
//   - gauges (and untyped/summary families) are point-in-time facts
//     about one process — summing "goroutines" across shards is
//     meaningless — so each sample is kept and tagged with a shard
//     label instead; a sample that already carries a shard label is a
//     shard's view of a peer and is dropped.
//
// Exemplars are dropped: a fleet bucket aggregates many shards, and a
// single shard's trace reference would be misleading. The output is a
// valid classic 0.0.4 exposition that ParseProm re-accepts.

// ShardExposition is one shard's parsed /metrics exposition, tagged
// with the shard name used for gauge labelling.
type ShardExposition struct {
	Shard   string
	Metrics Metrics
}

// MergeProm writes the merged fleet exposition of shards into w.
// Families are emitted in sorted name order, samples in sorted label
// order, so the output is deterministic.
func MergeProm(w *PromWriter, shards []ShardExposition) {
	names := map[string]bool{}
	for _, sh := range shards {
		for name := range sh.Metrics {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		// The first shard exposing the family fixes its type and help;
		// a shard redeclaring the family under another type is skipped
		// for that family (disagreeing binaries — merging would lie).
		var typ, help string
		for _, sh := range shards {
			if fam := sh.Metrics[name]; fam != nil && fam.Type != "" {
				typ, help = fam.Type, fam.Help
				break
			}
		}
		switch typ {
		case "counter":
			mergeAdditive(w, name, help, shards)
		case "histogram":
			mergeHistogram(w, name, help, shards)
		case "gauge", "untyped", "summary":
			mergePerShard(w, name, help, typ, shards)
		}
	}
}

// labelsSorted renders a label map as a name-sorted Label slice,
// optionally dropping one label.
func labelsSorted(m map[string]string, drop string) []Label {
	out := make([]Label, 0, len(m))
	for k, v := range m {
		if k != drop {
			out = append(out, Label{Name: k, Value: v})
		}
	}
	SortLabels(out)
	return out
}

// mergeAdditive sums counter samples across shards by full label set.
func mergeAdditive(w *PromWriter, name, help string, shards []ShardExposition) {
	type acc struct {
		labels map[string]string
		sum    float64
	}
	byKey := map[string]*acc{}
	for _, sh := range shards {
		fam := sh.Metrics[name]
		if fam == nil || fam.Type != "counter" {
			continue
		}
		for _, s := range fam.Samples {
			key := labelKey(s.Labels, "")
			a, ok := byKey[key]
			if !ok {
				a = &acc{labels: s.Labels}
				byKey[key] = a
			}
			a.sum += s.Value
		}
	}
	if len(byKey) == 0 {
		return
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.Counter(name, help, byKey[k].sum, labelsSorted(byKey[k].labels, "")...)
	}
}

// mergePerShard keeps every shard's samples, tagged with a shard label.
// Used for gauges and for the types with no meaningful cross-shard
// aggregation. A sample that already carries a shard label is one
// shard's statement about another (its federation prober's
// wdm_federation_peer_up, say), not a fleet fact, so it is dropped: the
// federation layer writes its own per-shard verdict, and a kept copy
// would repeat that series.
func mergePerShard(w *PromWriter, name, help, typ string, shards []ShardExposition) {
	for _, sh := range shards {
		fam := sh.Metrics[name]
		if fam == nil || fam.Type != typ {
			continue
		}
		for _, s := range fam.Samples {
			if _, has := s.Labels["shard"]; has {
				continue
			}
			w.header(name, help, typ)
			labels := append(labelsSorted(s.Labels, ""), Label{Name: "shard", Value: sh.Shard})
			SortLabels(labels)
			// Summary quantile/_sum/_count samples keep their own
			// names; plain gauge samples are just the family name.
			w.sample(s.Name, labels, s.Value)
		}
	}
}

// mergeHistogram sums one histogram family bucket-wise across shards,
// per series (label set minus le). Bucket bounds are unioned; a shard
// that lacks a bound contributes its cumulative count at the largest
// bound it does have below it (carry-forward), which keeps the merged
// cumulative counts monotone.
func mergeHistogram(w *PromWriter, name, help string, shards []ShardExposition) {
	type shardSeries struct {
		les  []float64 // sorted, includes +Inf
		cum  map[float64]float64
		sum  float64
		inf  float64
		seen bool
	}
	type series struct {
		labels map[string]string
		shards []*shardSeries // parallel to the shards slice
	}
	bySeries := map[string]*series{}
	get := func(labels map[string]string, shardIdx, nShards int) *shardSeries {
		key := labelKey(labels, "le")
		se, ok := bySeries[key]
		if !ok {
			se = &series{labels: labels, shards: make([]*shardSeries, nShards)}
			bySeries[key] = se
		}
		if se.shards[shardIdx] == nil {
			se.shards[shardIdx] = &shardSeries{cum: map[float64]float64{}}
		}
		return se.shards[shardIdx]
	}
	for si, sh := range shards {
		fam := sh.Metrics[name]
		if fam == nil || fam.Type != "histogram" {
			continue
		}
		for _, s := range fam.Samples {
			switch {
			case strings.HasSuffix(s.Name, "_bucket"):
				le, err := parseValue(s.Labels["le"])
				if err != nil {
					continue // the strict parser already rejected this upstream
				}
				ss := get(s.Labels, si, len(shards))
				ss.seen = true
				ss.cum[le] = s.Value
				if math.IsInf(le, +1) {
					ss.inf = s.Value
				}
			case strings.HasSuffix(s.Name, "_sum"):
				ss := get(s.Labels, si, len(shards))
				ss.seen = true
				ss.sum = s.Value
			}
		}
	}
	if len(bySeries) == 0 {
		return
	}
	keys := make([]string, 0, len(bySeries))
	for k := range bySeries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		se := bySeries[key]
		// Union of finite bounds across shards, sorted.
		boundSet := map[float64]bool{}
		for _, ss := range se.shards {
			if ss == nil || !ss.seen {
				continue
			}
			for le := range ss.cum {
				if !math.IsInf(le, +1) {
					boundSet[le] = true
				}
			}
			ss.les = ss.les[:0]
			for le := range ss.cum {
				ss.les = append(ss.les, le)
			}
			sort.Float64s(ss.les)
		}
		bounds := make([]float64, 0, len(boundSet))
		for le := range boundSet {
			bounds = append(bounds, le)
		}
		sort.Float64s(bounds)

		// Merged cumulative count at each bound: every shard contributes
		// the cumulative count of its largest bound <= le.
		stepAt := func(ss *shardSeries, le float64) float64 {
			var v float64
			for _, l := range ss.les {
				if l <= le {
					v = ss.cum[l]
				} else {
					break
				}
			}
			return v
		}
		var sum, infCum float64
		cums := make([]float64, len(bounds))
		for _, ss := range se.shards {
			if ss == nil || !ss.seen {
				continue
			}
			for i, le := range bounds {
				cums[i] += stepAt(ss, le)
			}
			infCum += ss.inf
			sum += ss.sum
		}
		// Back to the writer's non-cumulative shape: per-bucket deltas
		// plus the overflow bucket.
		counts := make([]int64, len(bounds)+1)
		prev := float64(0)
		for i, c := range cums {
			counts[i] = int64(c - prev)
			prev = c
		}
		counts[len(bounds)] = int64(infCum - prev)
		w.Histogram(name, help, bounds, counts, sum, labelsSorted(se.labels, "le")...)
	}
}

// MergeFleet is the HTTP-layer convenience: parse each shard's raw
// exposition and merge the ones that parse. Shards whose exposition is
// unreadable are reported (and skipped) rather than failing the whole
// federation — a fleet view that dies with its sickest member is
// useless during exactly the incident it exists for.
func MergeFleet(w *PromWriter, raw map[string][]byte) (bad map[string]error) {
	shards := make([]ShardExposition, 0, len(raw))
	names := make([]string, 0, len(raw))
	for name := range raw {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, err := ParseProm(strings.NewReader(string(raw[name])))
		if err != nil {
			if bad == nil {
				bad = map[string]error{}
			}
			bad[name] = fmt.Errorf("shard %s: %w", name, err)
			continue
		}
		shards = append(shards, ShardExposition{Shard: name, Metrics: m})
	}
	MergeProm(w, shards)
	return bad
}
