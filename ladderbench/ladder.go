package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/switchd"
	"repro/internal/wdm"
)

// ladder is the rung order, bottom up. Each rung adds one layer to the
// one below it, so a layer's self time is the difference between the
// means of adjacent rungs for the same op stream.
var ladder = []string{"backend", "switchd", "http", "client", "durable", "cluster"}

// rung is one built rung: a layer handle per connection plus whatever
// must be checked and stopped afterwards.
type rung struct {
	layers   []layer
	backends []backend.Backend // backend rung only
	st       *stack            // every other rung
}

// buildRung builds rung name for conns connections, each pinned to its
// own fabric plane. Data directories go under dir.
func buildRung(w *workload, name string, conns int, dir string, obsOff bool) (*rung, error) {
	rg := &rung{}
	p := w.params()
	if name == "backend" {
		d, err := backend.Get(w.backend)
		if err != nil {
			return nil, err
		}
		for i := 0; i < conns; i++ {
			b, err := d.New(p)
			if err != nil {
				return nil, err
			}
			rg.backends = append(rg.backends, b)
			rg.layers = append(rg.layers, &backendLayer{b: b})
		}
		return rg, nil
	}
	sp := stackSpec{backend: w.backend, params: p, obsOff: obsOff}
	switch name {
	case "switchd", "http":
	case "client":
		sp.serve = true
	case "durable":
		sp.serve, sp.dataDir = true, freshDir(dir, "primary")
	case "cluster":
		sp.serve, sp.dataDir, sp.standby = true, freshDir(dir, "primary"), freshDir(dir, "standby")
	default:
		return nil, fmt.Errorf("unknown rung %q", name)
	}
	st, err := startStack(sp)
	if err != nil {
		return nil, fmt.Errorf("%s rung: %w", name, err)
	}
	rg.st = st
	for i := 0; i < conns; i++ {
		if name == "http" {
			rg.layers = append(rg.layers, &httpLayer{h: st.ctl.Handler(), plane: i})
		} else {
			rg.layers = append(rg.layers, st.layer(i))
		}
	}
	return rg, nil
}

var dirSeq int

func freshDir(root, role string) string {
	dirSeq++
	return filepath.Join(root, fmt.Sprintf("%s-%d-%d", role, os.Getpid(), dirSeq))
}

func (rg *rung) close() error {
	if rg.st != nil {
		return rg.st.close()
	}
	return nil
}

// checkIdle verifies the rung holds no session after teardown and, for
// a replicated rung, that the standby holds every record the primary
// logged. The standby's acknowledged seq can stay one record short: it
// advances only on an ack, and a record whose frame arrives with a
// heartbeat already buffered behind it is applied but not acknowledged
// until the next record comes. So the standby is closed and its own log
// read back, which is what it would promote from.
func (rg *rung) checkIdle() error {
	if rg.st == nil {
		for i, b := range rg.backends {
			if n := b.Len(); n != 0 {
				return fmt.Errorf("backend %d holds %d connections after teardown", i, n)
			}
		}
		return nil
	}
	if n := rg.st.ctl.ActiveSessions(); n != 0 {
		return fmt.Errorf("controller reports %d active sessions after teardown", n)
	}
	if rg.st.standby == nil {
		return nil
	}
	want := rg.st.ctl.WAL().Stats().LastSeq
	deadline := time.Now().Add(time.Second)
	for rg.st.standby.AppliedSeq() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := rg.st.standby.AppliedSeq(); got != want {
		fmt.Printf("note: standby acknowledged seq %d, primary logged %d\n", got, want)
	}
	if err := rg.st.standby.Close(); err != nil {
		return fmt.Errorf("closing standby: %w", err)
	}
	rep, err := durable.Verify(rg.st.standbyDir)
	if err != nil {
		return fmt.Errorf("reading the standby's log: %w", err)
	}
	if !rep.Clean || rep.LastSeq != want || rep.Sessions != 0 {
		return fmt.Errorf("standby log: last seq %d, %d sessions, clean=%v; primary logged %d", rep.LastSeq, rep.Sessions, rep.Clean, want)
	}
	return nil
}

// checkCounts compares the caller's tallies with the server's own
// counters (or the backend's, on the backend rung).
func (rg *rung) checkCounts(c counts) error {
	if rg.st == nil {
		var routed, blocked int64
		for _, b := range rg.backends {
			r, bl := b.Stats()
			routed += r
			blocked += bl
		}
		if routed != c.connectOK || blocked != c.blocked {
			return fmt.Errorf("backend counts routed=%d blocked=%d, caller saw %d routed and %d blocked", routed, blocked, c.connectOK, c.blocked)
		}
		return nil
	}
	s := rg.st.ctl.Metrics().Snapshot()
	if s.ConnectOK != c.connectOK || s.BranchOK != c.branchOK || s.DisconnectOK != c.disconnectOK || s.Blocked != c.blocked {
		return fmt.Errorf("server counts connect_ok=%d branch_ok=%d disconnect_ok=%d blocked=%d, caller saw %d/%d/%d/%d",
			s.ConnectOK, s.BranchOK, s.DisconnectOK, s.Blocked, c.connectOK, c.branchOK, c.disconnectOK, c.blocked)
	}
	return nil
}

// spanRec is one span: op id, layer, op kind, and start/end relative to
// the traced run's start.
type spanRec struct {
	op         int32
	layer      string
	kind       OpKind
	start, end time.Duration
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	base time.Time
	recs []spanRec
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{base: time.Now(), recs: make([]spanRec, 0, capacity)}
}

// add records the span of an op that just returned after d.
func (s *spanLog) add(op int, layerName string, kind OpKind, d time.Duration) {
	end := time.Since(s.base)
	s.recs = append(s.recs, spanRec{op: int32(op), layer: layerName, kind: kind, start: end - d, end: end})
}

// write stores the spans as JSON lines, one per span, named
// <layer>.<op> and sharing the op's id across rungs.
func (s *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range s.recs {
		err := enc.Encode(struct {
			Op      int32  `json:"op"`
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{r.op, r.layer + "." + r.kind.String(), int64(r.start), int64(r.end)})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rungRun is what one traced replay of a rung measured.
type rungRun struct {
	hs     [numOpKinds]*hist
	wall   time.Duration
	allocs allocCounter
	ops    int64
	snap   switchd.Snapshot
	extra  map[string]float64
}

func (rr *rungRun) mean(k OpKind) float64 { return rr.hs[k].meanUs() }

// traceRung replays ops at a freshly built rung and checks it.
func traceRung(w *workload, name string, ops []Op, dir string, obsOff bool, spans *spanLog) (rr *rungRun, outs []outcome, err error) {
	rg, err := buildRung(w, name, 1, dir, obsOff)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := rg.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s rung: closing: %w", name, cerr)
		}
	}()
	r := newReplayer(rg.layers[0])
	a0 := readAllocs()
	outs, hs, wall := timedOps(r, ops, name, spans)
	rr = &rungRun{hs: hs, wall: wall, allocs: readAllocs().since(a0), ops: r.c.attempted, extra: map[string]float64{}}
	if rg.st != nil {
		rr.snap = rg.st.ctl.Metrics().Snapshot()
		if wal := rg.st.ctl.WAL(); wal != nil {
			ws := wal.Stats()
			rr.extra["appends_per_sync"] = ratio(float64(ws.Appends), float64(ws.Syncs))
			rr.extra["bytes_per_append"] = ratio(float64(ws.AppendedBytes), float64(ws.Appends))
		}
		if rg.st.standby != nil {
			rr.extra["sync_timeouts"] = float64(rg.st.repl.SyncTimeouts())
			rr.extra["standby_lag_records"] = float64(rg.st.ctl.WAL().Stats().LastSeq - rg.st.standby.AppliedSeq())
		}
		rr.extra["retries"] = float64(retries(rg.layers))
	}
	r.teardown()
	if r.firstErr != nil {
		return rr, outs, fmt.Errorf("%s rung: %w", name, r.firstErr)
	}
	if err := rg.checkCounts(r.c); err != nil {
		return rr, outs, fmt.Errorf("%s rung: %w", name, err)
	}
	if err := rg.checkIdle(); err != nil {
		return rr, outs, fmt.Errorf("%s rung: %w", name, err)
	}
	return rr, outs, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// middlesPerRoute replays ops on a bare backend with a route observer
// and returns middle modules selected per routed connect or branch. It
// is a separate pass so the observer never slows the timed rungs.
func middlesPerRoute(w *workload, ops []Op) (float64, error) {
	d, err := backend.Get(w.backend)
	if err != nil {
		return 0, err
	}
	b, err := d.New(w.params())
	if err != nil {
		return 0, err
	}
	var selected int64
	b.SetRouteObserver(func(s multistage.RouteStep) {
		if s.State == multistage.MiddleSelected {
			selected++
		}
	})
	r := newReplayer(&backendLayer{b: b})
	for i := range ops {
		r.do(&ops[i])
	}
	return ratio(float64(selected), float64(r.c.connectOK+r.c.branchOK)), r.firstErr
}

// backendMatrix replays the stream's connects, branches and disconnects
// on every registered backend at its own sufficient bound and returns
// each one's median connect (Add) time. The ring mesh guarantees only k
// live sessions, so it skips connects beyond k (and their later ops).
func backendMatrix(w *workload, ops []Op) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range backend.All() {
		p := w.params()
		p.M = 0
		b, err := d.New(p)
		if err != nil {
			return nil, fmt.Errorf("backend %s: %w", d.Name, err)
		}
		r := newReplayer(&backendLayer{b: b})
		h := newHist()
		for i := range ops {
			op := &ops[i]
			if d.Name == "mesh" && op.Kind == OpConnect && len(r.ids) >= b.Params().K {
				continue
			}
			if op.Kind == OpRead {
				continue
			}
			o, res := r.do(op)
			if op.Kind == OpConnect && o != outSkipped {
				h.add(res.d)
			}
		}
		// Blocks (including the mesh's structural split_incapable and the
		// AWG's wavelength conflicts) are answers; any other error fails.
		if r.firstErr != nil {
			return nil, fmt.Errorf("backend %s: %w", d.Name, r.firstErr)
		}
		out[d.Name] = h.quantileUs(0.5)
	}
	return out, nil
}

// params is the workload's fabric: MSW model, lite modules, M as set
// (0 = the backend's sufficient bound).
func (w *workload) params() multistage.Params {
	return multistage.Params{N: w.spec.N, K: w.spec.K, R: w.spec.R, M: w.m, Model: wdm.MSW, Lite: true}
}
