package switchd

import (
	"sync/atomic"
	"time"

	"repro/internal/multistage"
	"repro/internal/obs"
)

// routeBucketsMicros are the upper bounds (inclusive, microseconds) of
// the operation-latency histogram buckets; a final overflow bucket
// catches everything slower. All three operation histograms (connect,
// branch, disconnect) share these bounds so their series line up in
// dashboards.
var routeBucketsMicros = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// histExemplar references the most recent traced observation that
// landed in one latency bucket, for OpenMetrics exemplar exposition:
// the /metrics scrape links each bucket to a concrete trace id at
// /v1/debug/spans.
type histExemplar struct {
	traceID string
	seconds float64
	ts      float64 // unix seconds at observation
}

// latencyHist is one operation's latency histogram. All fields are
// lock-free atomics; a snapshot is monotone-consistent, not atomic.
type latencyHist struct {
	count     atomic.Int64
	sumNs     atomic.Int64
	buckets   []atomic.Int64 // len(routeBucketsMicros)+1, last = overflow
	exemplars []atomic.Pointer[histExemplar]
}

func newLatencyHist() *latencyHist {
	n := len(routeBucketsMicros) + 1
	return &latencyHist{
		buckets:   make([]atomic.Int64, n),
		exemplars: make([]atomic.Pointer[histExemplar], n),
	}
}

func (h *latencyHist) observe(d time.Duration) { h.observeEx(d, "") }

// observeEx records one observation and, when the request was traced,
// makes it the bucket's exemplar (last-writer-wins; exemplars are a
// sample, not a log).
func (h *latencyHist) observeEx(d time.Duration, traceID string) {
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	i := len(routeBucketsMicros)
	us := d.Microseconds()
	for j, ub := range routeBucketsMicros {
		if us <= ub {
			i = j
			break
		}
	}
	h.buckets[i].Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&histExemplar{
			traceID: traceID,
			seconds: d.Seconds(),
			ts:      float64(time.Now().UnixNano()) / 1e9,
		})
	}
}

// routeBoundsSeconds are routeBucketsMicros in seconds: the le bounds
// every serving histogram is exposed with.
var routeBoundsSeconds = func() []float64 {
	out := make([]float64, len(routeBucketsMicros))
	for i, us := range routeBucketsMicros {
		out[i] = float64(us) / 1e6
	}
	return out
}()

// writeProm writes the histogram as one series of family name straight
// from its atomics. In OpenMetrics mode each bucket carries its most
// recent traced observation as an exemplar.
func (h *latencyHist) writeProm(w *obs.PromWriter, name, help string, labels ...obs.Label) {
	counts := make([]int64, len(h.buckets))
	exemplars := make([]obs.Exemplar, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		if e := h.exemplars[i].Load(); e != nil {
			exemplars[i] = obs.Exemplar{
				Labels: []obs.Label{{Name: "trace_id", Value: e.traceID}},
				Value:  e.seconds,
				Ts:     e.ts,
			}
		}
	}
	w.HistogramE(name, help, routeBoundsSeconds, counts, float64(h.sumNs.Load())/1e9, exemplars, labels...)
}

// fabricMetrics is one replica's counter set. failedMiddles is the
// plane's failed middle-module count, a gauge and the only stored copy:
// the failure plane and recovery store it (under failMu), and
// admission (fabricDead), the degraded-mode derater and Snapshot read
// it. The plane's live connection count has one copy too, its
// backend's Len, which Snapshot reads through plane.
type fabricMetrics struct {
	routed        atomic.Int64
	blocked       atomic.Int64
	failedMiddles atomic.Int64
	plane         *fabric
}

// Metrics is the controller's counter registry. All counters are
// lock-free atomics; Snapshot assembles a consistent-enough view for
// serving (counters are independently monotone, so a snapshot is always
// a valid state some interleaving could have produced).
//
// The headline counter is Blocked: with every fabric provisioned at or
// above the Theorem 1/2 sufficient bound it must read zero forever —
// the paper's nonblocking claim as a monitorable invariant.
type Metrics struct {
	model        string
	construction string
	m            int

	connectOK    atomic.Int64
	branchOK     atomic.Int64
	disconnectOK atomic.Int64
	inadmissible atomic.Int64
	capRejects   atomic.Int64
	drainRejects atomic.Int64

	// Failure-plane counters: sessions live-migrated off failed middle
	// modules, and sessions dropped because no spare could carry them.
	migrated atomic.Int64
	dropped  atomic.Int64

	perFabric []*fabricMetrics

	// Per-operation latency histograms: time spent inside the fabric
	// lock per Add (connect), AddBranch (branch), and Release
	// (disconnect).
	connectLat    *latencyHist
	branchLat     *latencyHist
	disconnectLat *latencyHist

	// Durable state plane: group-commit fsync latency and the session
	// count restored at the last startup (0 without a data directory).
	walFsync  *latencyHist
	recovered atomic.Int64

	// Per-phase latency histograms (wdm_phase_seconds{phase=...}),
	// indexed by the phase constants: where a request's time actually
	// went — admission, lock wait, route search, WAL append, replication
	// ack, respond.
	phase [numPhases]*latencyHist
}

func newMetrics(p multistage.Params, replicas int) *Metrics {
	m := &Metrics{
		model:         p.Model.String(),
		construction:  p.Construction.String(),
		m:             p.M,
		connectLat:    newLatencyHist(),
		branchLat:     newLatencyHist(),
		disconnectLat: newLatencyHist(),
		walFsync:      newLatencyHist(),
	}
	for i := range m.phase {
		m.phase[i] = newLatencyHist()
	}
	for i := 0; i < replicas; i++ {
		m.perFabric = append(m.perFabric, &fabricMetrics{})
	}
	return m
}

// Blocked returns the total blocking events observed (Connect and
// AddBranch combined): the sum of the per-plane counts.
func (m *Metrics) Blocked() int64 {
	var n int64
	for _, f := range m.perFabric {
		n += f.blocked.Load()
	}
	return n
}

// Routed returns the total successful Connect count.
func (m *Metrics) Routed() int64 { return m.connectOK.Load() }

// MigratedSessions returns the total sessions live-migrated off failed
// middle modules; DroppedSessions those the failure plane released for
// lack of spare capacity.
func (m *Metrics) MigratedSessions() int64 { return m.migrated.Load() }
func (m *Metrics) DroppedSessions() int64  { return m.dropped.Load() }

func (h *latencyHist) snapshot(op string) OpLatency {
	return OpLatency{Op: op, Count: h.count.Load(), SumNs: h.sumNs.Load()}
}

// FabricSnapshot is one replica's counters in a metrics Snapshot.
// Active is the plane's live connection count, read from its backend.
type FabricSnapshot struct {
	Routed  int64 `json:"routed"`
	Blocked int64 `json:"blocked"`
	Active  int64 `json:"active"`
	// FailedMiddles is the plane's current count of failed middle
	// modules (a gauge, not a counter).
	FailedMiddles int `json:"failed_middles,omitempty"`
}

// OpLatency is one operation's (or phase's) observation count and
// summed latency in a Snapshot; its buckets are on /metrics.
type OpLatency struct {
	Op    string `json:"op"` // connect | branch | disconnect, or a phase name
	Count int64  `json:"count"`
	SumNs int64  `json:"sum_ns"`
}

// Snapshot is the registry's counter values at one instant, read in
// process: WriteProm reads its counters for /metrics, and wdmserve logs
// it as JSON on shutdown. Latency histograms are not copied here; each
// writes its own buckets to /metrics, and Ops and Phases carry only
// their counts and sums.
type Snapshot struct {
	Model        string `json:"model"`
	Construction string `json:"construction"`
	M            int    `json:"m"`
	ConnectOK    int64  `json:"connect_ok"`
	BranchOK     int64  `json:"branch_ok"`
	DisconnectOK int64  `json:"disconnect_ok"`
	Blocked      int64  `json:"blocked"`
	Inadmissible int64  `json:"inadmissible"`
	CapRejects   int64  `json:"cap_rejects_429"`
	DrainRejects int64  `json:"drain_rejects_503"`
	// MigratedSessions counts sessions moved off failed middle modules;
	// DroppedSessions those the failure plane could not restore.
	MigratedSessions int64       `json:"migrated_sessions"`
	DroppedSessions  int64       `json:"dropped_sessions"`
	Ops              []OpLatency `json:"ops"`
	// Phases are the per-phase counts and sums (Op is the phase name:
	// admission_wait, lock_wait, route_search, wal_append, repl_ack,
	// respond); phases never observed are omitted.
	Phases    []OpLatency      `json:"phases,omitempty"`
	PerFabric []FabricSnapshot `json:"per_fabric"`
}

// Snapshot assembles the current counter values; it locks each plane
// briefly to read the plane's live connection count.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Model:            m.model,
		Construction:     m.construction,
		M:                m.m,
		ConnectOK:        m.connectOK.Load(),
		BranchOK:         m.branchOK.Load(),
		DisconnectOK:     m.disconnectOK.Load(),
		Blocked:          m.Blocked(),
		Inadmissible:     m.inadmissible.Load(),
		CapRejects:       m.capRejects.Load(),
		DrainRejects:     m.drainRejects.Load(),
		MigratedSessions: m.migrated.Load(),
		DroppedSessions:  m.dropped.Load(),
	}
	s.Ops = []OpLatency{
		m.connectLat.snapshot("connect"),
		m.branchLat.snapshot("branch"),
		m.disconnectLat.snapshot("disconnect"),
	}
	for p := phase(0); p < numPhases; p++ {
		if ph := m.phase[p].snapshot(phaseNames[p]); ph.Count > 0 {
			s.Phases = append(s.Phases, ph)
		}
	}
	for _, f := range m.perFabric {
		f.plane.mu.Lock()
		active := f.plane.net.Len()
		f.plane.mu.Unlock()
		s.PerFabric = append(s.PerFabric, FabricSnapshot{
			Routed:        f.routed.Load(),
			Blocked:       f.blocked.Load(),
			Active:        int64(active),
			FailedMiddles: int(f.failedMiddles.Load()),
		})
	}
	return s
}
