package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/switchd/api"
)

// Pure rendering: a poll pair (current + previous for rates) in, one
// dashboard string out. Everything here is testable without a server.

// poll is one scrape of the serving endpoints.
type poll struct {
	t       time.Time
	metrics obs.Metrics
	// health is the failure-plane snapshot (nil against older servers).
	health *api.Health
	slo    *slo.Snapshot
	// lastBlocked is the most recent blocked trace, when the span ring
	// has one (nil otherwise or when tracing is disabled).
	lastBlocked *span.TraceRecord
	// alerts is the rules-engine snapshot (nil when the server runs
	// without -history).
	alerts []tsdb.AlertStatus
	// histBlocked/histRouted are short /v1/query ranges backing the
	// sparkline panel (nil without -history).
	histBlocked *tsdb.QueryResult
	histRouted  *tsdb.QueryResult
}

// fabricRow is one plane's line in the occupancy table.
type fabricRow struct {
	id              int
	active          float64
	routed, blocked float64
	inRatio         float64
	outRatio        float64
}

// fabricRows extracts the per-plane table from a parsed exposition,
// ordered by fabric index.
func fabricRows(m obs.Metrics) []fabricRow {
	fam := m["wdm_fabric_active"]
	if fam == nil {
		return nil
	}
	var rows []fabricRow
	for _, s := range fam.Samples {
		id, err := strconv.Atoi(s.Labels["fabric"])
		if err != nil {
			continue
		}
		lbl := map[string]string{"fabric": s.Labels["fabric"]}
		row := fabricRow{id: id, active: s.Value}
		row.routed, _ = m.Value("wdm_fabric_routed_total", lbl)
		row.blocked, _ = m.Value("wdm_fabric_blocked_total", lbl)
		row.inRatio, _ = m.Value("wdm_link_busy_ratio", map[string]string{"fabric": s.Labels["fabric"], "stage": "in"})
		row.outRatio, _ = m.Value("wdm_link_busy_ratio", map[string]string{"fabric": s.Labels["fabric"], "stage": "out"})
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	return rows
}

// histQuantileMicros estimates the q-quantile of one op's latency
// histogram in microseconds with obs.BucketQuantile, interpolating
// inside the bucket that holds the rank. ok is false with no samples.
func histQuantileMicros(m obs.Metrics, op string, q float64) (float64, bool) {
	return histQuantileFamily(m, "wdm_op_latency_seconds", map[string]string{"op": op}, q)
}

// histQuantileFamily is histQuantileMicros generalized over the
// histogram family and label filter, which must select one series.
// ParseProm keeps a series' buckets in ascending le order.
func histQuantileFamily(m obs.Metrics, family string, match map[string]string, q float64) (float64, bool) {
	fam := m[family]
	if fam == nil {
		return 0, false
	}
	var les, cum []float64
	for _, s := range fam.Samples {
		if s.Name != family+"_bucket" || !hasLabels(s.Labels, match) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		les = append(les, le)
		cum = append(cum, s.Value)
	}
	v, ok := obs.BucketQuantile(q, les, cum)
	return v * 1e6, ok
}

// hasLabels reports whether labels carries every pair of match.
func hasLabels(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// counter returns a label-less sample value, 0 when absent.
func counter(m obs.Metrics, name string) float64 {
	v, _ := m.Value(name, nil)
	return v
}

// rate computes the per-second delta of a counter between polls; zero
// without a previous poll.
func rate(cur, prev *poll, name string) float64 {
	if prev == nil {
		return 0
	}
	dt := cur.t.Sub(prev.t).Seconds()
	if dt <= 0 {
		return 0
	}
	d := counter(cur.metrics, name) - counter(prev.metrics, name)
	if d < 0 { // server restarted between polls
		return 0
	}
	return d / dt
}

func pct(v float64) string { return fmt.Sprintf("%5.1f%%", v*100) }

// renderDashboard builds the full console frame.
func renderDashboard(cur, prev *poll, target string) string {
	var b strings.Builder
	m := cur.metrics

	mVal, _ := m.Value("wdm_fabric_info", nil)
	var model, constr, n, k, r, x string
	if fam := m["wdm_fabric_info"]; fam != nil && len(fam.Samples) > 0 {
		l := fam.Samples[0].Labels
		model, constr, n, k, r, x = l["model"], l["construction"], l["n"], l["k"], l["r"], l["x"]
	}
	suffM := counter(m, "wdm_sufficient_m")
	bound := "AT/ABOVE BOUND (nonblocking)"
	if mVal < suffM {
		bound = "BELOW BOUND (blocking possible)"
	}
	fmt.Fprintf(&b, "wdmtop — %s — %s\n", target, cur.t.Format("15:04:05"))
	fmt.Fprintf(&b, "fabric: %s/%s  N=%s K=%s r=%s  m=%.0f (sufficient %.0f)  x=%s  — %s\n\n",
		model, constr, n, k, r, mVal, suffM, x, bound)

	routed := counter(m, "wdm_connect_total") + counter(m, "wdm_branch_total")
	blocked := counter(m, "wdm_blocked_total")
	fmt.Fprintf(&b, "sessions %.0f   routed %.0f (%.1f/s)   blocked %.0f (%.1f/s)   inadmissible %.0f\n",
		counter(m, "wdm_active_sessions"),
		routed, rate(cur, prev, "wdm_connect_total")+rate(cur, prev, "wdm_branch_total"),
		blocked, rate(cur, prev, "wdm_blocked_total"),
		counter(m, "wdm_inadmissible_total"))

	if p50, ok := histQuantileMicros(m, "connect", 0.50); ok {
		p90, _ := histQuantileMicros(m, "connect", 0.90)
		p99, _ := histQuantileMicros(m, "connect", 0.99)
		fmt.Fprintf(&b, "connect latency p50 %s  p90 %s  p99 %s\n", usStr(p50), usStr(p90), usStr(p99))
	}
	b.WriteByte('\n')

	if p := phasesPanel(m); p != "" {
		b.WriteString(p)
		b.WriteByte('\n')
	}

	if rows := fabricRows(m); len(rows) > 0 {
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "fabric\tactive\trouted\tblocked\tin-occ\tout-occ")
		for _, row := range rows {
			fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.0f\t%s\t%s\n",
				row.id, row.active, row.routed, row.blocked, pct(row.inRatio), pct(row.outRatio))
		}
		tw.Flush()
		b.WriteByte('\n')
	}

	if h := cur.health; h != nil {
		fmt.Fprintf(&b, "health %s", strings.ToUpper(h.Status))
		if h.FailedMiddles > 0 || h.MigratedSessions > 0 || h.DroppedSessions > 0 {
			fmt.Fprintf(&b, "  failed middles %d  migrated %d  dropped %d",
				h.FailedMiddles, h.MigratedSessions, h.DroppedSessions)
		}
		if h.Degraded {
			capStr := "unlimited"
			if h.MaxSessions > 0 {
				capStr = fmt.Sprintf("%d", h.MaxSessions)
			}
			fmt.Fprintf(&b, "  cap %d (derated from %s)", h.EffectiveMaxSessions, capStr)
		}
		b.WriteByte('\n')
		for _, fh := range h.Fabrics {
			if len(fh.FailedMiddles) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  fabric %d: failed middles %v  effective m %d/%d  (%s)\n",
				fh.Replica, fh.FailedMiddles, fh.EffectiveM, h.M, fh.Status)
		}
		b.WriteByte('\n')
	}

	if d := durabilityPanel(cur); d != "" {
		b.WriteString(d)
		b.WriteByte('\n')
	}

	if c := clusterPanel(cur); c != "" {
		b.WriteString(c)
		b.WriteByte('\n')
	}

	if h := historyPanel(cur); h != "" {
		b.WriteString(h)
		b.WriteByte('\n')
	}

	if a := alertsPanel(cur.alerts); a != "" {
		b.WriteString(a)
		b.WriteByte('\n')
	}

	if s := cur.slo; s != nil {
		health := "HEALTHY"
		if !s.Healthy {
			health = "BURNING"
		}
		fmt.Fprintf(&b, "SLO %s  (availability objective %.4g, latency ≤ %.0fµs @ %.4g)\n",
			health, s.Objective, s.LatencyThresholdUs, s.LatencyObjective)
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "window\tavailability\tburn\tlatency-ok\tlat-burn")
		for _, w := range s.Windows {
			fmt.Fprintf(tw, "%s\t%.5f\t%.2f\t%.5f\t%.2f\n",
				w.Window, w.Availability, w.AvailabilityBurn, w.LatencyOK, w.LatencyBurn)
		}
		tw.Flush()
		for _, a := range s.Alerts {
			state := "ok"
			if a.AvailabilityFiring {
				state = "FIRING (availability)"
			} else if a.LatencyFiring {
				state = "FIRING (latency)"
			}
			fmt.Fprintf(&b, "alert %-5s (%s && %s > %.1f): %s\n", a.Name, a.Short, a.Long, a.Threshold, state)
		}
		b.WriteByte('\n')
	}

	if t := cur.lastBlocked; t != nil {
		fmt.Fprintf(&b, "last blocked trace: %s  (%s, %s, %s ago)\n",
			t.TraceID, t.Root, usStr(float64(t.DurationNs)/1e3),
			cur.t.Sub(t.Start).Truncate(time.Second))
		fmt.Fprintf(&b, "  inspect: curl '%s/v1/debug/spans?trace=%s'\n", target, t.TraceID)
	} else if blocked > 0 {
		fmt.Fprintf(&b, "last blocked trace: (none in span ring)\n")
	} else {
		fmt.Fprintf(&b, "no blocking events — invariant holding\n")
	}
	return b.String()
}

// durabilityPanel renders the durable-state-plane row: WAL lag
// (appended bytes not yet fsynced), snapshot age, fsync p99, and what
// the last startup recovered. Empty when the server runs in-memory
// (no wdm_wal_* series and no health row).
func durabilityPanel(cur *poll) string {
	var d *api.DurabilityHealth
	if cur.health != nil {
		d = cur.health.Durability
	}
	m := cur.metrics
	_, hasWal := m.Value("wdm_wal_appends_total", nil)
	if d == nil && !hasWal {
		return ""
	}
	var b strings.Builder
	state := "HEALTHY"
	if d != nil && !d.Healthy {
		state = "POISONED (mutations 503 until restart)"
	} else if v, ok := m.Value("wdm_wal_healthy", nil); ok && v == 0 {
		state = "POISONED (mutations 503 until restart)"
	}
	appends := counter(m, "wdm_wal_appends_total")
	fsyncs := counter(m, "wdm_wal_fsyncs_total")
	lag := counter(m, "wdm_wal_unsynced_bytes")
	fmt.Fprintf(&b, "durability %s  wal %.0f appends / %.0f fsyncs  lag %.0fB",
		state, appends, fsyncs, lag)
	if p99, ok := histQuantileFamily(m, "wdm_wal_fsync_seconds", nil, 0.99); ok {
		fmt.Fprintf(&b, "  fsync p99 %s", usStr(p99))
	}
	b.WriteByte('\n')
	if age, ok := m.Value("wdm_snapshot_age_seconds", nil); ok {
		fmt.Fprintf(&b, "  snapshot age %s (covers seq %.0f)",
			(time.Duration(age * float64(time.Second))).Truncate(time.Second),
			counter(m, "wdm_snapshot_last_seq"))
	} else {
		fmt.Fprintf(&b, "  no snapshot yet")
	}
	if d != nil {
		fmt.Fprintf(&b, "  seq %d (synced %d)", d.LastSeq, d.SyncedSeq)
		if d.RecoveredSessions > 0 || d.ReplayedRecords > 0 {
			fmt.Fprintf(&b, "  recovered %d sessions in %dms", d.RecoveredSessions, d.RecoveryMillis)
		}
		if d.TruncatedTail != "" {
			fmt.Fprintf(&b, "\n  CORRUPT TAIL truncated at recovery: %s", d.TruncatedTail)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// clusterPanel renders the replication row of a clustered node: role,
// shard, stream liveness, sequence positions, and lag. Empty when the
// node is not part of a cluster (no health row and no
// wdm_replication_* series).
func clusterPanel(cur *poll) string {
	var r *api.ReplicationHealth
	if cur.health != nil {
		r = cur.health.Replication
	}
	m := cur.metrics
	_, hasRepl := m.Value("wdm_replication_seq", nil)
	if r == nil && !hasRepl {
		return ""
	}
	var b strings.Builder
	if r == nil {
		// Metrics-only target (health endpoint unreachable or filtered):
		// show the raw series.
		fmt.Fprintf(&b, "cluster  replication lag %.3fs\n", counter(m, "wdm_replication_lag_seconds"))
		return b.String()
	}
	link := "DISCONNECTED"
	if r.Connected {
		link = "connected"
	}
	fmt.Fprintf(&b, "cluster shard %d  role %s", r.Shard, strings.ToUpper(r.Role))
	if r.Promoted {
		b.WriteString(" (promoted from standby)")
	}
	fmt.Fprintf(&b, "  stream %s", link)
	b.WriteByte('\n')
	switch r.Role {
	case api.RolePrimary:
		fmt.Fprintf(&b, "  standbys %d  synced seq %d / acked %d  lag %d records %.3fs",
			r.Standbys, r.SyncedSeq, r.AckedSeq, r.LagRecords, r.LagSeconds)
		if r.SyncTimeouts > 0 {
			fmt.Fprintf(&b, "  SYNC TIMEOUTS %d (degraded to async)", r.SyncTimeouts)
		}
	default:
		fmt.Fprintf(&b, "  applied seq %d / primary %d  lag %d records %.3fs  reconnects %d",
			r.AppliedSeq, r.SyncedSeq, r.LagRecords, r.LagSeconds, r.Reconnects)
		if r.Snapshots > 0 {
			fmt.Fprintf(&b, "  snapshot bootstraps %d", r.Snapshots)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// sparkGlyphs is the eight-level block ramp used by sparkline.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as a block-glyph strip scaled 0..max (the
// series the dashboard plots are rates, so zero is the natural floor).
// Longer series are downsampled by max over equal buckets so spikes
// survive compression; NaN (no sample at that step) renders as a space.
func sparkline(vals []float64, width int) string {
	if width <= 0 || len(vals) == 0 {
		return ""
	}
	if len(vals) > width {
		packed := make([]float64, width)
		for i := range packed {
			lo, hi := i*len(vals)/width, (i+1)*len(vals)/width
			cell := math.NaN()
			for _, v := range vals[lo:hi] {
				if !math.IsNaN(v) && (math.IsNaN(cell) || v > cell) {
					cell = v
				}
			}
			packed[i] = cell
		}
		vals = packed
	}
	max := 0.0
	for _, v := range vals {
		if !math.IsNaN(v) && v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		switch {
		case math.IsNaN(v):
			b.WriteByte(' ')
		case max == 0:
			b.WriteRune(sparkGlyphs[0])
		default:
			idx := int(v / max * float64(len(sparkGlyphs)-1))
			if idx < 0 {
				idx = 0
			}
			b.WriteRune(sparkGlyphs[idx])
		}
	}
	return b.String()
}

// seriesValues sums a query result across its series per step (a
// single-node rate() result has one series; a federated one has one
// per shard plus the fleet sum — the plain per-shard rows are summed,
// the precomputed fleet row is skipped to avoid double counting).
func seriesValues(qr *tsdb.QueryResult) []float64 {
	if qr == nil || len(qr.Series) == 0 {
		return nil
	}
	var n int
	for _, s := range qr.Series {
		if len(s.Points) > n {
			n = len(s.Points)
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for _, s := range qr.Series {
		if s.Labels["shard"] == "fleet" {
			continue
		}
		for i, p := range s.Points {
			if math.IsNaN(p.V) {
				continue
			}
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
			vals[i] += p.V
		}
	}
	return vals
}

// historyPanel renders sparklines of the recent routed/blocked rates
// from the server's embedded metrics history; empty when the server
// runs without -history (no /v1/query).
func historyPanel(cur *poll) string {
	if cur.histBlocked == nil && cur.histRouted == nil {
		return ""
	}
	span := ""
	if qr := cur.histRouted; qr != nil && qr.EndMs > qr.StartMs {
		span = fmt.Sprintf(" (last %s)", (time.Duration(qr.EndMs-qr.StartMs) * time.Millisecond).Truncate(time.Second))
	} else if qr := cur.histBlocked; qr != nil && qr.EndMs > qr.StartMs {
		span = fmt.Sprintf(" (last %s)", (time.Duration(qr.EndMs-qr.StartMs) * time.Millisecond).Truncate(time.Second))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "history%s\n", span)
	row := func(name string, qr *tsdb.QueryResult) {
		vals := seriesValues(qr)
		if len(vals) == 0 {
			return
		}
		max := 0.0
		for _, v := range vals {
			if !math.IsNaN(v) && v > max {
				max = v
			}
		}
		fmt.Fprintf(&b, "  %-10s %s  max %.1f/s\n", name, sparkline(vals, 60), max)
	}
	row("routed/s", cur.histRouted)
	row("blocked/s", cur.histBlocked)
	return b.String()
}

// alertsPanel renders the rules-engine snapshot: a one-line rollup and
// one row per non-inactive rule. Empty when the engine is absent.
func alertsPanel(alerts []tsdb.AlertStatus) string {
	if alerts == nil {
		return ""
	}
	var firing, pending int
	for _, a := range alerts {
		switch a.State {
		case tsdb.StateFiring:
			firing++
		case tsdb.StatePending:
			pending++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "alerts  %d firing / %d pending / %d ok\n",
		firing, pending, len(alerts)-firing-pending)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for _, a := range alerts {
		if a.State == tsdb.StateInactive {
			continue
		}
		state := string(a.State)
		if a.State == tsdb.StateFiring {
			state = "FIRING"
		}
		since := "-"
		if a.Since != nil {
			since = time.Since(*a.Since).Truncate(time.Second).String()
		}
		fmt.Fprintf(tw, "  %s\t%s\tvalue %.4g\tfor %s\n", state, a.Rule.Name, a.Value, since)
	}
	tw.Flush()
	return b.String()
}

// phaseOrder mirrors the server's hot-path order, so the panel reads
// top-to-bottom as a request flows.
var phaseOrder = []string{"admission_wait", "lock_wait", "route_search", "wal_append", "repl_ack", "respond"}

// phasesPanel renders the per-phase attribution table from the
// wdm_phase_seconds histograms; empty when the family is absent or all
// phases are unobserved.
func phasesPanel(m obs.Metrics) string {
	fam := m["wdm_phase_seconds"]
	if fam == nil {
		return ""
	}
	present := map[string]bool{}
	for _, s := range fam.Samples {
		if p := s.Labels["phase"]; p != "" {
			present[p] = true
		}
	}
	names := make([]string, 0, len(present))
	for _, p := range phaseOrder {
		if present[p] {
			names = append(names, p)
			delete(present, p)
		}
	}
	var rest []string
	for p := range present {
		rest = append(rest, p)
	}
	sort.Strings(rest)
	names = append(names, rest...)

	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tcount\tmean\tp50\tp99")
	wrote := false
	for _, p := range names {
		lbl := map[string]string{"phase": p}
		count, _ := m.Value("wdm_phase_seconds_count", lbl)
		if count == 0 {
			continue
		}
		sum, _ := m.Value("wdm_phase_seconds_sum", lbl)
		p50, _ := histQuantileFamily(m, "wdm_phase_seconds", lbl, 0.50)
		p99, _ := histQuantileFamily(m, "wdm_phase_seconds", lbl, 0.99)
		fmt.Fprintf(tw, "%s\t%.0f\t%s\t%s\t%s\n", p, count, usStr(sum/count*1e6), usStr(p50), usStr(p99))
		wrote = true
	}
	if !wrote {
		return ""
	}
	tw.Flush()
	return b.String()
}

// renderFleet builds the -fleet frame from a parsed /v1/cluster/metrics
// exposition: fleet-wide totals and P_block (counters and histograms
// arrive summed across shards), the merged phase table, and a
// per-shard gauge table.
func renderFleet(m obs.Metrics, t time.Time, target string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "wdmtop fleet — %s/v1/cluster/metrics — %s\n\n", target, t.Format("15:04:05"))

	routed := counter(m, "wdm_connect_total") + counter(m, "wdm_branch_total")
	var sessions float64
	if fam := m["wdm_active_sessions"]; fam != nil {
		for _, s := range fam.Samples {
			sessions += s.Value
		}
	}
	// P_block is the merged counters' ratio: every shard's blocks over
	// every shard's admissible routing operations.
	blocked, ops := counter(m, "wdm_blocked_total"), counter(m, "wdm_route_ops_total")
	pblock := "-"
	if ops > 0 {
		pblock = fmt.Sprintf("%.4f", blocked/ops)
	}
	fmt.Fprintf(&b, "fleet sessions %.0f   routed %.0f   blocked %.0f   inadmissible %.0f   P_block %s\n",
		sessions, routed, blocked, counter(m, "wdm_inadmissible_total"), pblock)
	if p50, ok := histQuantileMicros(m, "connect", 0.50); ok {
		p99, _ := histQuantileMicros(m, "connect", 0.99)
		fmt.Fprintf(&b, "fleet connect latency p50 %s  p99 %s\n", usStr(p50), usStr(p99))
	}
	b.WriteByte('\n')

	if p := phasesPanel(m); p != "" {
		b.WriteString(p)
		b.WriteByte('\n')
	}

	up := m["wdm_federation_peer_up"]
	if up == nil {
		b.WriteString("no wdm_federation_peer_up series — is the target running in -cluster mode?\n")
		return b.String()
	}
	type shardRow struct {
		shard string
		up    float64
	}
	var rows []shardRow
	for _, s := range up.Samples {
		rows = append(rows, shardRow{shard: s.Labels["shard"], up: s.Value})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].shard < rows[j].shard })
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shard\tup\tsessions\trepl-lag\tgoroutines\theap")
	for _, row := range rows {
		lbl := map[string]string{"shard": row.shard}
		status := "DOWN"
		if row.up == 1 {
			status = "up"
		}
		sess, _ := m.Value("wdm_active_sessions", lbl)
		lag, _ := m.Value("wdm_replication_lag_seconds", lbl)
		gor, _ := m.Value("wdm_go_goroutines", lbl)
		heap, _ := m.Value("wdm_go_heap_bytes", lbl)
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.3fs\t%.0f\t%s\n",
			row.shard, status, sess, lag, gor, byteStr(heap))
	}
	tw.Flush()
	return b.String()
}

// byteStr renders a byte count compactly.
func byteStr(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// usStr renders microseconds compactly (µs below 1ms, ms above).
func usStr(us float64) string {
	if us >= 1000 {
		return fmt.Sprintf("%.2fms", us/1000)
	}
	return fmt.Sprintf("%.0fµs", us)
}
