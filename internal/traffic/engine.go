package traffic

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/switchd/api"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// HotspotConfig skews destination choice toward a hot port set, after
// the hotspot-traffic model of arXiv 0804.3215: a Fraction of requests
// draws its destinations only from the first Ports ports of the
// worker's slice whenever any of their slots are free; the rest of the
// traffic stays uniform.
type HotspotConfig struct {
	// Fraction of requests aimed at the hotspot (0 disables the skew).
	Fraction float64 `json:"fraction,omitempty"`
	// Ports is the hot-set size (default 1 when Fraction > 0).
	Ports int `json:"ports,omitempty"`
}

// ChurnConfig adds session-lifetime dynamics: while a session holds,
// churn events fire at Rate per unit holding time; each grows the
// session by one AddBranch leaf with probability GrowBias, otherwise
// partially tears it down. The wire API has no leaf removal, so a
// shrink disconnects and re-admits the remaining leaves — the re-admit
// is admissible by construction (its slots were just freed), so a
// refusal is a genuine block.
type ChurnConfig struct {
	Rate     float64 `json:"rate,omitempty"`
	GrowBias float64 `json:"grow_bias,omitempty"`
}

// Config parameterizes one engine run: an arrival process offering
// Erlangs of load to every fabric replica, in virtual time.
type Config struct {
	// Sink is the target: a live server (NewClientSink) or a routing
	// network in process (NewNetworkSink).
	Sink Sink
	// Seed drives every per-worker PRNG.
	Seed int64
	// Arrivals is the total connect-arrival budget across all workers
	// (default 10000).
	Arrivals int
	// WorkersPerFabric partitions each fabric replica's port space into
	// this many disjoint closed loops (default 1).
	WorkersPerFabric int
	// MaxFanout bounds each request's fanout; 0 means up to the
	// worker's port-slice size.
	MaxFanout int
	// Fanout is the multicast fanout distribution (default
	// workload.Geometric{} — the historical p=0.5 stream).
	Fanout workload.FanoutDist
	// Hotspot skews destination choice (zero value = uniform).
	Hotspot HotspotConfig

	// Erlangs is the offered load per fabric replica: mean concurrent
	// sessions = arrival rate × mean holding time. Must be positive.
	Erlangs float64
	// Arrival builds each worker's arrival process (default poisson).
	Arrival ArrivalSpec
	// Holding is the session holding-time distribution (default exp).
	Holding HoldingSpec
	// Churn adds AddBranch growth / partial-teardown dynamics.
	Churn ChurnConfig
	// MaxLive clamps each worker's concurrent sessions: arrivals
	// landing at the clamp are counted Unoffered (a client-side clamp,
	// never presented to the fabric). 0 = unlimited.
	// Used to hold a sweep inside a backend's concurrency guarantee —
	// the ring mesh is nonblocking only for k concurrent sessions.
	MaxLive int
	// TimeScale maps one virtual-time unit (one mean holding time) to a
	// wall-clock duration; 0 runs as fast as the target answers. Used
	// by wdmload -steady so the target's gauges and sparklines move at
	// watchable speed.
	TimeScale time.Duration

	// StreamLog, when set, receives the run's request stream: one line
	// per request event in virtual-time order, concatenated per worker
	// in worker order after the run. The stream is a pure function of
	// the config and seed — same seed, byte-identical log.
	StreamLog io.Writer
}

// Report aggregates one engine run.
type Report struct {
	Workers  int
	Duration time.Duration
	Stats    Stats
	Status   api.Status // the target's shape, as fetched at start
}

// Engine drives one run against one target.
type Engine struct {
	cfg Config
}

// NewEngine validates the config, applies defaults, and returns a
// runnable engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Sink == nil {
		return nil, fmt.Errorf("traffic: Config.Sink is required")
	}
	if cfg.Erlangs <= 0 {
		return nil, fmt.Errorf("traffic: offered load %g Erlangs is not positive", cfg.Erlangs)
	}
	if cfg.Arrivals <= 0 {
		cfg.Arrivals = 10000
	}
	if cfg.Fanout == nil {
		cfg.Fanout = workload.Geometric{}
	}
	if cfg.WorkersPerFabric <= 0 {
		cfg.WorkersPerFabric = 1
	}
	if cfg.Hotspot.Fraction < 0 || cfg.Hotspot.Fraction > 1 {
		return nil, fmt.Errorf("traffic: hotspot fraction %g outside [0, 1]", cfg.Hotspot.Fraction)
	}
	if cfg.Hotspot.Fraction > 0 && cfg.Hotspot.Ports <= 0 {
		cfg.Hotspot.Ports = 1
	}
	if cfg.Churn.Rate < 0 {
		return nil, fmt.Errorf("traffic: churn rate %g is negative", cfg.Churn.Rate)
	}
	if cfg.Churn.Rate > 0 && cfg.Churn.GrowBias == 0 {
		cfg.Churn.GrowBias = 0.5
	}
	return &Engine{cfg: cfg}, nil
}

// Run executes the configured workload and returns the merged report.
// Every worker runs its own closed loop over a disjoint slice of one
// fabric replica's port space; the run ends when the arrival budget is
// spent and every live session has been torn down.
func (e *Engine) Run(ctx context.Context) (Report, error) {
	cfg := e.cfg
	status, err := cfg.Sink.Shape(ctx)
	if err != nil {
		return Report{}, fmt.Errorf("traffic: fetching target status: %w", err)
	}
	model, err := wdm.ParseModel(status.Model)
	if err != nil {
		return Report{}, fmt.Errorf("traffic: %w", err)
	}
	if status.Replicas < 1 || status.N < cfg.WorkersPerFabric {
		return Report{}, fmt.Errorf("traffic: target too small (N=%d replicas=%d)", status.N, status.Replicas)
	}

	workers := status.Replicas * cfg.WorkersPerFabric
	perWorker := cfg.Arrivals / workers
	remainder := cfg.Arrivals % workers

	results := make([]Stats, workers)
	logs := make([]*streamBuffer, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		var lg *streamBuffer
		if cfg.StreamLog != nil {
			lg = &streamBuffer{}
			logs[i] = lg
		}
		go func(i int, lg *streamBuffer) {
			defer wg.Done()
			attempts := perWorker
			if i < remainder {
				attempts++
			}
			w := newWorker(&cfg, status, model, i, lg)
			w.run(ctx, attempts)
			results[i] = w.stats
		}(i, lg)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{Workers: workers, Duration: elapsed, Status: status}
	rep.Stats = newStats()
	for _, r := range results {
		rep.Stats.merge(r)
	}
	if cfg.StreamLog != nil {
		for i, lg := range logs {
			if _, err := fmt.Fprintf(cfg.StreamLog, "# worker %d\n", i); err != nil {
				return rep, fmt.Errorf("traffic: writing stream log: %w", err)
			}
			if _, err := cfg.StreamLog.Write(lg.buf); err != nil {
				return rep, fmt.Errorf("traffic: writing stream log: %w", err)
			}
		}
	}
	return rep, rep.Stats.Err
}

// streamBuffer collects one worker's deterministic request stream.
type streamBuffer struct{ buf []byte }

func (b *streamBuffer) printf(format string, args ...any) {
	b.buf = append(b.buf, fmt.Sprintf(format, args...)...)
}

// liveSession is one routed session the engine still holds.
type liveSession struct {
	id   uint64
	conn wdm.Connection
}

// worker owns one disjoint slice of the port space of one fabric
// replica (ports with port % workersPerFabric == its partition), its
// own PRNG, arrival process, and free-slot bookkeeping.
type worker struct {
	cfg    *Config
	sink   Sink
	stats  Stats
	log    *streamBuffer
	fabric int

	rng     *rand.Rand
	gen     *workload.Generator
	model   wdm.Model
	ports   []int
	freeSrc *SlotPool
	freeDst *SlotPool
	hot     map[wdm.Port]bool
	hotBuf  []wdm.PortWave
}

func newWorker(cfg *Config, status api.Status, model wdm.Model, id int, lg *streamBuffer) *worker {
	w := &worker{
		cfg:    cfg,
		sink:   cfg.Sink,
		stats:  newStats(),
		log:    lg,
		fabric: id / cfg.WorkersPerFabric,
		rng:    rand.New(rand.NewSource(cfg.Seed + int64(id)*7919)),
		model:  model,
	}
	part := id % cfg.WorkersPerFabric
	for p := part; p < status.N; p += cfg.WorkersPerFabric {
		w.ports = append(w.ports, p)
	}
	w.freeSrc = NewSlotPool(w.ports, status.K)
	w.freeDst = NewSlotPool(w.ports, status.K)
	w.gen = workload.NewGenerator(cfg.Seed+int64(id)*7919+1, model, wdm.Dim{N: status.N, K: status.K})
	w.gen.SetFanout(cfg.Fanout)
	if cfg.Hotspot.Fraction > 0 {
		w.hot = make(map[wdm.Port]bool, cfg.Hotspot.Ports)
		for i := 0; i < cfg.Hotspot.Ports && i < len(w.ports); i++ {
			w.hot[wdm.Port(w.ports[i])] = true
		}
	}
	return w
}

func (w *worker) maxFanout() int {
	mf := w.cfg.MaxFanout
	if mf <= 0 || mf > len(w.ports) {
		mf = len(w.ports)
	}
	return mf
}

// destCandidates applies the hotspot skew: a Fraction of requests
// draws destinations only from the hot ports' free slots, falling back
// to the full set when the hotspot is saturated.
func (w *worker) destCandidates() []wdm.PortWave {
	all := w.freeDst.Slots()
	if w.hot == nil || w.rng.Float64() >= w.cfg.Hotspot.Fraction {
		return all
	}
	w.hotBuf = w.hotBuf[:0]
	for _, s := range all {
		if w.hot[s.Port] {
			w.hotBuf = append(w.hotBuf, s)
		}
	}
	if len(w.hotBuf) == 0 {
		return all
	}
	return w.hotBuf
}

// offer is the single request-generation path: build one admissible
// connect from the worker's free slots, offer it to the sink, and
// account the answer. routed reports that the worker now holds the
// returned session (its slots taken); fatal means stats.Err is set.
func (w *worker) offer(ctx context.Context) (sess liveSession, routed, fatal bool) {
	conn, ok := w.gen.Connection(w.freeSrc.Slots(), w.destCandidates(), w.gen.Fanout(w.maxFanout()))
	if !ok {
		w.stats.Unoffered++
		return liveSession{}, false, false
	}
	w.stats.Connects++
	w.stats.TotalFanout += len(conn.Dests)
	stratum := w.stats.ByFanout[len(conn.Dests)]
	stratum.Offered++
	w.stats.ByFanout[len(conn.Dests)] = stratum
	outcome, sess, fatal := w.admitConnection(ctx, conn, "connect")
	switch {
	case fatal:
		return liveSession{}, false, true
	case outcome == OK:
		return sess, true, false
	case outcome == api.CodeAdmissionFull:
		w.stats.Rejected++
	case outcome == api.CodeFabricFailed:
		// Tallied in Outcomes only: the worker's plane had no working middle.
	case IsBlockedCode(outcome):
		w.stats.Blocked++
		stratum.Blocked++
		w.stats.ByFanout[len(conn.Dests)] = stratum
	default:
		w.stats.Err = fmt.Errorf("traffic: connect %s: unexpected error code %s", wdm.FormatConnection(conn), outcome)
		return liveSession{}, false, true
	}
	return liveSession{}, false, false
}

// admitConnection performs one connect-class request (a fresh connect
// or a shrink re-admit), logs it under the given verb, and on success
// takes the session's slots. It returns the outcome code and, for OK,
// the routed session; fatal means stats.Err is set.
func (w *worker) admitConnection(ctx context.Context, conn wdm.Connection, verb string) (outcome string, sess liveSession, fatal bool) {
	connStr := wdm.FormatConnection(conn)
	start := time.Now()
	r, err := w.sink.Connect(ctx, w.fabric, conn)
	rtt := time.Since(start)
	w.stats.Latencies = append(w.stats.Latencies, rtt)
	if err != nil {
		w.stats.Err = fmt.Errorf("traffic: %s %s: %w", verb, connStr, err)
		return "", liveSession{}, true
	}
	w.stats.Outcomes[r.Code]++
	w.logf("%s %s -> %s\n", verb, connStr, r.Code)
	if r.Code == OK {
		w.stats.Routed++
		if r.Repacked {
			w.stats.Repacked++
		}
		w.freeSrc.Take(conn.Source)
		for _, d := range conn.Dests {
			w.freeDst.Take(d)
		}
		return OK, liveSession{id: r.Session, conn: conn}, false
	}
	return r.Code, liveSession{}, false
}

// IsBlockedCode reports whether a stable code is the fabric's blocked
// class: the generic code or a backend-specific sub-code
// (wavelength_conflict on awg, split_incapable on mesh).
func IsBlockedCode(code string) bool {
	switch code {
	case api.CodeBlocked, api.CodeWavelengthConflict, api.CodeSplitIncapable:
		return true
	}
	return false
}

// disconnect tears one session down and frees its slots. not_found
// means chaos dropped it server-side; the slots are free either way.
func (w *worker) disconnect(ctx context.Context, s liveSession) bool {
	code, err := w.sink.Disconnect(ctx, s.id)
	switch {
	case err != nil:
		w.stats.Err = fmt.Errorf("traffic: disconnect session %d: %w", s.id, err)
		return false
	case code == OK:
		w.stats.Disconnects++
	case code == api.CodeNotFound:
		w.stats.Lost++
	default:
		w.stats.Err = fmt.Errorf("traffic: disconnect session %d: unexpected error code %s", s.id, code)
		return false
	}
	w.freeSrc.Put(s.conn.Source)
	for _, d := range s.conn.Dests {
		w.freeDst.Put(d)
	}
	if w.log != nil {
		w.logf("disconnect %s\n", wdm.FormatConnection(s.conn))
	}
	return true
}

// noteLive records the worker's live-session count after an admit.
func (w *worker) noteLive(n int) {
	if n > w.stats.PeakLive {
		w.stats.PeakLive = n
	}
}

func (w *worker) logf(format string, args ...any) {
	if w.log != nil {
		w.log.printf(format, args...)
	}
}

// ---------------------------------------------------------------------------
// The run loop: a virtual-time event queue. Arrivals follow the
// configured process at rate λ = Erlangs / workersPerFabric per worker
// (in units of the mean holding time); routed sessions depart after a
// sampled holding time and optionally churn while alive. The loop is
// single-threaded per worker and every draw comes from the worker's
// own PRNG, so the request stream is a pure function of the config and
// seed.

type eventKind int

const (
	evArrival eventKind = iota
	evDeparture
	evChurn
)

type event struct {
	t    float64
	seq  int // FIFO tie-break keeps the heap deterministic
	kind eventKind
	sess int // local session key for departures/churn
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (w *worker) run(ctx context.Context, arrivals int) {
	lambda := w.cfg.Erlangs / float64(w.cfg.WorkersPerFabric)
	arr := w.cfg.Arrival.NewProcess()
	hold := w.cfg.Holding.NewDist()

	var (
		events  eventHeap
		seq     int
		now     float64
		done    int
		nextKey int
		live    = map[int]liveSession{}
	)
	push := func(t float64, kind eventKind, sess int) {
		heap.Push(&events, event{t: t, seq: seq, kind: kind, sess: sess})
		seq++
	}
	scheduleChurn := func(key int, from float64) {
		if w.cfg.Churn.Rate > 0 {
			push(from+w.rng.ExpFloat64()/w.cfg.Churn.Rate, evChurn, key)
		}
	}
	admit := func(sess liveSession) {
		key := nextKey
		nextKey++
		live[key] = sess
		w.noteLive(len(live))
		push(now+hold.Sample(w.rng), evDeparture, key)
		scheduleChurn(key, now)
	}

	push(arr.Next(w.rng)/lambda, evArrival, 0)
	for events.Len() > 0 && ctx.Err() == nil {
		ev := heap.Pop(&events).(event)
		if w.cfg.TimeScale > 0 {
			if wait := time.Duration((ev.t - now) * float64(w.cfg.TimeScale)); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
				case <-t.C:
				}
			}
		}
		now = ev.t
		switch ev.kind {
		case evArrival:
			done++
			if w.cfg.MaxLive > 0 && len(live) >= w.cfg.MaxLive {
				w.stats.Unoffered++
				w.logf("t=%.6f clamped\n", now)
				if done < arrivals {
					push(now+arr.Next(w.rng)/lambda, evArrival, 0)
				}
				continue
			}
			w.logf("t=%.6f ", now)
			sess, routed, fatal := w.offer(ctx)
			if fatal {
				return
			}
			if routed {
				admit(sess)
			}
			if done < arrivals {
				push(now+arr.Next(w.rng)/lambda, evArrival, 0)
			}
		case evDeparture:
			sess, ok := live[ev.sess]
			if !ok {
				continue // shrunk away after a lost re-admit
			}
			delete(live, ev.sess)
			w.logf("t=%.6f ", now)
			if !w.disconnect(ctx, sess) {
				return
			}
		case evChurn:
			sess, ok := live[ev.sess]
			if !ok {
				continue
			}
			if w.rng.Float64() < w.cfg.Churn.GrowBias {
				grown, fatal := w.churnGrow(ctx, sess, now)
				if fatal {
					return
				}
				live[ev.sess] = grown
			} else {
				shrunk, kept, fatal := w.churnShrink(ctx, sess, now)
				if fatal {
					return
				}
				if kept {
					live[ev.sess] = shrunk
				} else {
					delete(live, ev.sess)
				}
			}
			scheduleChurn(ev.sess, now)
		}
	}
	// Drain whatever is still live, in deterministic key order.
	keys := make([]int, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if !w.disconnect(ctx, live[k]) {
			return
		}
	}
}

// churnGrow adds one admissible leaf to a live session via AddBranch
// and returns the (possibly grown) session; fatal means stats.Err is
// set.
func (w *worker) churnGrow(ctx context.Context, sess liveSession, now float64) (liveSession, bool) {
	slot, ok := w.pickGrowSlot(sess.conn)
	if !ok {
		return sess, false // no admissible leaf free; skip this event
	}
	w.stats.Branches++
	code, err := w.sink.Branch(ctx, sess.id, slot)
	switch {
	case err != nil:
		w.stats.Err = fmt.Errorf("traffic: branch session %d: %w", sess.id, err)
		return sess, true
	case code == OK:
		w.freeDst.Take(slot)
		sess.conn.Dests = append(sess.conn.Dests, slot)
		sess.conn = sess.conn.Normalize()
		w.logf("t=%.6f branch %s += %s -> ok\n", now, wdm.FormatConnection(sess.conn), wdm.FormatSlot(slot))
	case IsBlockedCode(code):
		w.stats.BranchBlocked++
		w.logf("t=%.6f branch %s += %s -> %s\n", now, wdm.FormatConnection(sess.conn), wdm.FormatSlot(slot), code)
	case code == api.CodeNotFound:
		w.stats.Lost++
	default:
		// Transient server-side refusal (draining, storage): skip.
		w.logf("t=%.6f branch %s -> %s\n", now, wdm.FormatConnection(sess.conn), code)
	}
	return sess, false
}

// churnShrink partially tears a session down: disconnect, then
// re-admit every leaf but one as a new session. kept=false means the
// session is gone (blocked or rejected re-admit).
func (w *worker) churnShrink(ctx context.Context, sess liveSession, now float64) (shrunk liveSession, kept, fatal bool) {
	if len(sess.conn.Dests) < 2 {
		return sess, true, false // nothing to drop; teardown is the departure's job
	}
	if !w.disconnect(ctx, sess) {
		return sess, false, true
	}
	drop := w.rng.Intn(len(sess.conn.Dests))
	smaller := wdm.Connection{Source: sess.conn.Source}
	for i, d := range sess.conn.Dests {
		if i != drop {
			smaller.Dests = append(smaller.Dests, d)
		}
	}
	smaller = smaller.Normalize()
	w.stats.Shrinks++
	outcome, next, fatal := w.admitConnection(ctx, smaller, fmt.Sprintf("t=%.6f shrink", now))
	if fatal {
		return sess, false, true
	}
	if outcome == "ok" {
		return next, true, false
	}
	// Blocked / rejected re-admit: the session's remaining members are
	// simply gone (accounted by admitConnection).
	return sess, false, false
}

// pickGrowSlot finds a free destination slot the session can grow to
// under the worker's model: a port the session does not already reach,
// on an admissible wavelength (the source's for MSW, the session's
// common destination wavelength for MSDW, any for MAW).
func (w *worker) pickGrowSlot(c wdm.Connection) (wdm.PortWave, bool) {
	used := make(map[wdm.Port]bool, len(c.Dests))
	for _, d := range c.Dests {
		used[d.Port] = true
	}
	var want wdm.Wavelength
	anyWave := false
	switch w.model {
	case wdm.MAW:
		anyWave = true
	case wdm.MSDW:
		if len(c.Dests) > 0 {
			want = c.Dests[0].Wave
		} else {
			want = c.Source.Wave
		}
	default: // MSW
		want = c.Source.Wave
	}
	for _, s := range w.freeDst.Slots() {
		if used[s.Port] {
			continue
		}
		if anyWave || s.Wave == want {
			return s, true
		}
	}
	return wdm.PortWave{}, false
}
