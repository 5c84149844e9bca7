package main

import (
	"fmt"
	"strings"
	"time"
)

// runTraced replays the first w.trace ops of connection 0's stream at
// every rung and reports the per-layer metrics.
func runTraced(w *workload, seed int64, dataDir, spanPath string) *report {
	rep := newReport()
	g := NewGenerator(w.spec, streamSeed(seed, 0))
	ops := make([]Op, w.trace)
	for i := range ops {
		ops[i] = g.Next()
	}
	spans := newSpanLog(len(ops) * len(ladder))

	// One untimed pass first, so the bottom rung is not the one that
	// pays for a cold heap and cold caches.
	if _, _, err := traceRung(w, "backend", ops, dataDir, false, nil); err != nil {
		rep.fail("warm-up pass: %v", err)
		return rep
	}

	runs := map[string]*rungRun{}
	var ref []outcome
	for _, name := range ladder {
		rr, outs, err := traceRung(w, name, ops, dataDir, false, spans)
		if err != nil {
			rep.fail("%v", err)
			if rr == nil {
				return rep
			}
		}
		runs[name] = rr
		rep.attempted += rr.ops
		if ref == nil {
			ref = outs
		} else if i := firstDiff(ref, outs); i >= 0 {
			rep.fail("ladder diverged: op %d (%s) was %s at backend but %s at %s", i, ops[i].Kind, outcomeName[ref[i]], outcomeName[outs[i]], name)
		}
	}
	if err := spans.write(spanPath); err != nil {
		rep.fail("writing spans: %v", err)
	}

	// Observability off at the http rung, and the top rung once more
	// without spans, for the two overhead figures.
	obsOff, _, err := traceRung(w, "http", ops, dataDir, true, nil)
	if err != nil {
		rep.fail("http rung without observability: %v", err)
		return rep
	}
	untraced, _, err := traceRung(w, w.top, ops, dataDir, false, nil)
	if err != nil {
		rep.fail("untraced %s rung: %v", w.top, err)
		return rep
	}
	rep.attempted += obsOff.ops + untraced.ops

	be := runs["backend"]
	rep.set("backend.add_p50_us", be.hs[OpConnect].quantileUs(0.50), "us", true)
	rep.set("backend.add_p99_us", be.hs[OpConnect].quantileUs(0.99), "us", true)
	if be.hs[OpBranch].n > 0 {
		rep.set("backend.branch_p50_us", be.hs[OpBranch].quantileUs(0.50), "us", false)
	}
	rep.set("backend.release_p50_us", be.hs[OpDisconnect].quantileUs(0.50), "us", true)
	rep.set("backend.allocs_per_op", ratio(float64(be.allocs.mallocs), float64(be.ops)), "count", true)
	rep.set("backend.bytes_per_op", ratio(float64(be.allocs.bytes), float64(be.ops)), "B", true)
	mpr, err := middlesPerRoute(w, ops)
	if err != nil {
		rep.fail("middles pass: %v", err)
	}
	rep.set("backend.middles_per_route", mpr, "count", true)
	offered := be.hs[OpConnect].n + be.hs[OpBranch].n
	blocked := 0
	for _, o := range ref {
		if o == outBlocked {
			blocked++
		}
	}
	rep.set("backend.block_rate", ratio(float64(blocked), float64(offered)), "ratio", false)
	matrix, err := backendMatrix(w, ops)
	if err != nil {
		rep.fail("backend matrix: %v", err)
	}
	for _, name := range []string{"msw", "maw", "awg", "mesh"} {
		rep.set("backend."+name+".add_p50_us", matrix[name], "us", true)
	}

	// Self times: each layer's mean minus the mean of the rung below.
	for i := 1; i < len(ladder); i++ {
		lo, hi := runs[ladder[i-1]], runs[ladder[i]]
		for k := OpKind(0); k < numOpKinds; k++ {
			if hi.hs[k].n == 0 {
				continue
			}
			inJSON := k != OpBranch && !(k == OpRead && i >= 4)
			rep.set(fmt.Sprintf("%s.%s_self_us", ladder[i], k), hi.mean(k)-lo.mean(k), "us", inJSON)
		}
	}
	for _, name := range []string{"switchd", "http", "client"} {
		rr := runs[name]
		rep.set(name+".allocs_per_op", ratio(float64(rr.allocs.mallocs), float64(rr.ops)), "count", true)
	}
	rep.set("http.bytes_per_op", ratio(float64(runs["http"].allocs.bytes), float64(runs["http"].ops)), "B", true)
	rep.set("client.retries", runs["client"].extra["retries"], "count", false)

	// Server phases at the http rung (means over the requests that
	// touched each phase), the WAL and replication phases from the rungs
	// that have them, and what the phases leave unexplained.
	ht := runs["http"]
	var phaseNs, mutations int64
	for _, ph := range ht.snap.Phases {
		phaseNs += ph.SumNs
	}
	var mutNs time.Duration
	for _, k := range []OpKind{OpConnect, OpBranch, OpDisconnect} {
		mutations += ht.hs[k].n
		mutNs += ht.hs[k].sum
	}
	for _, ph := range []struct{ name, rung string }{
		{"admission_wait", "http"}, {"lock_wait", "http"}, {"route_search", "http"},
		{"wal_append", "durable"}, {"repl_ack", "cluster"}, {"respond", "http"},
	} {
		rep.set("phase."+ph.name+"_us", phaseMean(runs[ph.rung], ph.name), "us", true)
	}
	rep.set("phase.unattributed_us", ratio(float64(int64(mutNs)-phaseNs), float64(mutations))/1e3, "us", true)

	du, cl := runs["durable"], runs["cluster"]
	rep.set("durable.appends_per_sync", du.extra["appends_per_sync"], "count", true)
	rep.set("durable.bytes_per_append", du.extra["bytes_per_append"], "B", true)
	rep.set("cluster.sync_timeouts", cl.extra["sync_timeouts"], "count", false)
	rep.set("cluster.standby_lag_records", cl.extra["standby_lag_records"], "count", false)

	rep.set("obs.self_us", ht.wallPerOp()-obsOff.wallPerOp(), "us", true)
	top := runs[w.top]
	rep.set("trace.overhead_pct", 100*(top.wall.Seconds()-untraced.wall.Seconds())/untraced.wall.Seconds(), "%", true)

	// The attribution identity: backend time plus every layer's self
	// time is the top of the ladder's wall time, per op kind.
	for k := OpKind(0); k < numOpKinds; k++ {
		if be.hs[k].n == 0 {
			continue
		}
		parts := []string{fmt.Sprintf("backend %.2f", be.mean(k))}
		sum := be.mean(k)
		for _, name := range ladder[1:] {
			self := rep.metrics[fmt.Sprintf("%s.%s_self_us", name, k)].Value
			sum += self
			parts = append(parts, fmt.Sprintf("%s %.2f", name, self))
		}
		fmt.Printf("ladder %s (us): %s = %.2f; cluster wall %.2f\n", k, strings.Join(parts, " + "), sum, runs["cluster"].mean(k))
	}
	return rep
}

// wallPerOp is the rung's mean time per attempted op, in microseconds.
func (rr *rungRun) wallPerOp() float64 {
	var sum time.Duration
	var n int64
	for _, h := range rr.hs {
		sum += h.sum
		n += h.n
	}
	return ratio(float64(sum), float64(n)) / 1e3
}

// phaseMean is a server phase's mean (SumNs/Count) in microseconds at
// rung rr, or 0 when no request touched it.
func phaseMean(rr *rungRun, name string) float64 {
	for _, ph := range rr.snap.Phases {
		if ph.Op == name {
			return ratio(float64(ph.SumNs), float64(ph.Count)) / 1e3
		}
	}
	return 0
}

var outcomeName = [...]string{outOK: "ok", outBlocked: "blocked", outSkipped: "skipped", outError: "error"}

func firstDiff(a, b []outcome) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}
