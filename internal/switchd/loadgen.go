package switchd

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/switchd/client"
	"repro/internal/traffic"
)

// Attack mode: the legacy closed-loop load generator, now a thin
// wrapper over the internal/traffic engine in max-rate mode — one
// request-generation path shared with the Erlang sweeps of wdmload.
// Each worker owns a disjoint slice of the port space of one fabric
// replica and only offers connections whose endpoints are free in its
// slice, so every `blocked` from the server is a genuine blocking
// event, exactly as in the engine's in-process runs.
//
// A chaos schedule (ChaosEvent, parsed from "-chaos" syntax by
// ParseChaos) fires fail/repair calls against the target's failure
// plane at fixed offsets into the run, turning the generator into an
// end-to-end chaos harness: at m = bound + f spares, failing f middles
// mid-run must keep both drops and blocks at zero.

// Chaos actions a schedule can fire against the failure plane.
const (
	ChaosFail   = "fail"
	ChaosRepair = "repair"
)

// ChaosEvent is one scheduled failure-plane operation.
type ChaosEvent struct {
	// At is the offset from attack start.
	At time.Duration `json:"at_ns"`
	// Action is "fail" or "repair".
	Action string `json:"action"`
	Fabric int    `json:"fabric"`
	Middle int    `json:"middle"`
}

// ParseChaos parses a chaos schedule in the -chaos flag syntax: a
// comma-separated list of "<action>@<offset> f<fabric>:m<middle>",
// e.g. "fail@10s f0:m2, repair@30s f0:m2".
func ParseChaos(s string) ([]ChaosEvent, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var events []ChaosEvent
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Fields(part)
		if len(fields) != 2 {
			return nil, fmt.Errorf("switchd: chaos: want \"<action>@<offset> f<fabric>:m<middle>\", got %q", part)
		}
		action, offset, ok := strings.Cut(fields[0], "@")
		if !ok || (action != ChaosFail && action != ChaosRepair) {
			return nil, fmt.Errorf("switchd: chaos: want fail@<offset> or repair@<offset>, got %q", fields[0])
		}
		at, err := time.ParseDuration(offset)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("switchd: chaos: bad offset in %q: %v", fields[0], err)
		}
		target := fields[1]
		fs, ms, ok := strings.Cut(target, ":")
		if !ok || !strings.HasPrefix(fs, "f") || !strings.HasPrefix(ms, "m") {
			return nil, fmt.Errorf("switchd: chaos: want f<fabric>:m<middle>, got %q", target)
		}
		fab, err1 := strconv.Atoi(fs[1:])
		mid, err2 := strconv.Atoi(ms[1:])
		if err1 != nil || err2 != nil || fab < 0 || mid < 0 {
			return nil, fmt.Errorf("switchd: chaos: bad target %q", target)
		}
		events = append(events, ChaosEvent{At: at, Action: action, Fabric: fab, Middle: mid})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// ChaosOutcome is what one scheduled event did.
type ChaosOutcome struct {
	ChaosEvent
	// Error is set when the admin call failed (by api error string).
	Error string `json:"error,omitempty"`
	// Migrated/Dropped are the session counts a fail moved/lost; zero
	// for repairs.
	Migrated int `json:"migrated,omitempty"`
	Dropped  int `json:"dropped,omitempty"`
	// Health is the server's rollup status after the event.
	Health string `json:"health,omitempty"`
}

// AttackConfig parameterizes one load-generation run.
type AttackConfig struct {
	// BaseURL of the target server, e.g. "http://localhost:8047".
	BaseURL string
	// Client is the HTTP client to use (http.DefaultClient if nil).
	Client *http.Client
	// Requests is the total number of connect attempts across all
	// workers.
	Requests int
	// WorkersPerFabric is the concurrent worker count per fabric
	// replica (default 2). Total workers = replicas * WorkersPerFabric.
	WorkersPerFabric int
	// MaxFanout bounds each request's fanout; 0 means up to the
	// worker's port-slice size.
	MaxFanout int
	// TargetLive is the per-worker live-session high-water mark: the
	// worker disconnects its oldest session before connecting past it
	// (default 8). This is the knob that sets offered load.
	TargetLive int
	// Seed drives the per-worker traffic generators.
	Seed int64
	// Retry is the typed client's backoff policy for 429/503 answers;
	// the zero value disables retries.
	Retry client.RetryPolicy
	// Chaos is the failure-plane schedule fired during the run (see
	// ParseChaos).
	Chaos []ChaosEvent
}

// ClientLatency and TraceRef are the traffic engine's types, re-exported
// so AttackReport's shape (and its JSON) is unchanged.
type (
	ClientLatency = traffic.ClientLatency
	TraceRef      = traffic.TraceRef
)

// AttackReport aggregates a run.
type AttackReport struct {
	Workers     int           `json:"workers"`
	Connects    int           `json:"connects"`
	Routed      int           `json:"routed"`
	Blocked     int           `json:"blocked"`
	Rejected    int           `json:"rejected"` // admission_full answers
	Disconnects int           `json:"disconnects"`
	Duration    time.Duration `json:"duration_ns"`

	// OpsPerSec counts every completed HTTP operation (connects +
	// disconnects) per wall-clock second; ConnectsPerSec only connects.
	OpsPerSec      float64 `json:"ops_per_sec"`
	ConnectsPerSec float64 `json:"connects_per_sec"`
	// BlockingProbability is Blocked / Connects (admission rejects
	// excluded: they were never offered to a fabric).
	BlockingProbability float64 `json:"blocking_probability"`

	// Outcomes tallies every connect by result: "ok" or the stable api
	// error code ("blocked", "admission_full", ...). ConnectLatency
	// summarizes the client-observed connect round-trip times.
	Outcomes       map[string]int `json:"outcomes"`
	ConnectLatency ClientLatency  `json:"connect_latency_us"`

	// ServerPhases is the server's own attribution of connect time,
	// averaged over the Server-Timing headers it returned: mean µs per
	// phase (admission_wait, lock_wait, route_search, ...). The gap
	// between ConnectLatency and the phase sum is network + HTTP
	// overhead the server never saw.
	ServerPhases map[string]float64 `json:"server_phase_mean_us,omitempty"`

	// Retries is the typed client's total backoff retries across the
	// run; LostSessions counts sessions the server dropped under chaos
	// (disconnect answered not_found).
	Retries      int64 `json:"retries"`
	LostSessions int   `json:"lost_sessions"`
	// Chaos reports what each scheduled failure-plane event did.
	Chaos []ChaosOutcome `json:"chaos,omitempty"`

	// SlowestTraces are the slowest connects by client round trip;
	// BlockedTraces every blocked connect (up to a cap) — both by the
	// trace ids this client sent, for server-side follow-up.
	SlowestTraces []TraceRef `json:"slowest_traces,omitempty"`
	BlockedTraces []TraceRef `json:"blocked_traces,omitempty"`

	// Server is the target's own metrics snapshot after the run.
	Server Snapshot `json:"server"`
}

func (r AttackReport) String() string {
	s := fmt.Sprintf("%d workers: %d connects (%d routed, %d blocked, %d rejected) in %v — %.0f ops/s, %.0f connects/s, connect p50/p95/p99 %.0f/%.0f/%.0f µs, P_block=%.4f (server blocked=%d)",
		r.Workers, r.Connects, r.Routed, r.Blocked, r.Rejected, r.Duration.Round(time.Millisecond),
		r.OpsPerSec, r.ConnectsPerSec,
		r.ConnectLatency.P50Micros, r.ConnectLatency.P95Micros, r.ConnectLatency.P99Micros,
		r.BlockingProbability, r.Server.Blocked)
	if r.Retries > 0 || r.LostSessions > 0 {
		s += fmt.Sprintf("\nretries=%d lost_sessions=%d", r.Retries, r.LostSessions)
	}
	for _, c := range r.Chaos {
		s += fmt.Sprintf("\nchaos %s@%v f%d:m%d", c.Action, c.At.Round(time.Millisecond), c.Fabric, c.Middle)
		if c.Error != "" {
			s += " error=" + c.Error
		} else if c.Action == ChaosFail {
			s += fmt.Sprintf(" migrated=%d dropped=%d health=%s", c.Migrated, c.Dropped, c.Health)
		} else {
			s += " health=" + c.Health
		}
	}
	if len(r.ServerPhases) > 0 {
		var parts []string
		for p := phase(0); p < numPhases; p++ {
			if v, ok := r.ServerPhases[phaseNames[p]]; ok {
				parts = append(parts, fmt.Sprintf("%s=%.0f", phaseNames[p], v))
			}
		}
		if len(parts) > 0 {
			s += "\nserver phases (mean µs): " + strings.Join(parts, " ")
		}
	}
	if len(r.BlockedTraces) > 0 {
		s += fmt.Sprintf("\nfirst blocked trace: %s (curl <target>/v1/debug/spans?trace=%s)",
			r.BlockedTraces[0].TraceID, r.BlockedTraces[0].TraceID)
	}
	if len(r.SlowestTraces) > 0 {
		s += fmt.Sprintf("\nslowest connect: %d µs, trace %s", r.SlowestTraces[0].Micros, r.SlowestTraces[0].TraceID)
	}
	return s
}

// Attack runs the load generator against cfg.BaseURL: the traffic
// engine in max-rate mode, with the chaos scheduler and the loadgen
// self-reporter running alongside the workers.
func Attack(cfg AttackConfig) (AttackReport, error) {
	opts := []client.Option{client.WithRetry(cfg.Retry)}
	if cfg.Client != nil {
		opts = append(opts, client.WithHTTPClient(cfg.Client))
	}
	cl := client.New(cfg.BaseURL, opts...)

	eng, err := traffic.NewEngine(traffic.Config{
		Sink:             traffic.NewClientSink(cl),
		Seed:             cfg.Seed,
		Arrivals:         cfg.Requests,
		WorkersPerFabric: cfg.WorkersPerFabric,
		MaxFanout:        cfg.MaxFanout,
		TargetLive:       cfg.TargetLive,
	})
	if err != nil {
		return AttackReport{}, fmt.Errorf("switchd: attack: %w", err)
	}

	ctx := context.Background()

	// The chaos scheduler runs alongside the workers and is cut off when
	// they finish (events past the run's end never fire). The
	// self-reporter streams offered/achieved rates to the target (POST
	// /v1/loadgen) once a second, so the run's load curve lands in the
	// server's metrics history next to the counters it explains.
	chaosCtx, stopChaos := context.WithCancel(ctx)
	chaosDone := make(chan []ChaosOutcome, 1)
	start := time.Now()
	go func() { chaosDone <- runChaos(chaosCtx, cl, start, cfg.Chaos) }()
	repCtx, stopReport := context.WithCancel(ctx)
	var repWG sync.WaitGroup
	repWG.Add(1)
	go func() {
		defer repWG.Done()
		traffic.ReportLoop(repCtx, cl, eng.Progress(), 0)
	}()

	trep, runErr := eng.Run(ctx)
	stopChaos()
	stopReport()
	repWG.Wait()
	chaos := <-chaosDone

	s := trep.Stats
	rep := AttackReport{
		Workers:      trep.Workers,
		Connects:     s.Connects,
		Routed:       s.Routed,
		Blocked:      s.Blocked,
		Rejected:     s.Rejected,
		Disconnects:  s.Disconnects,
		Duration:     trep.Duration,
		Outcomes:     s.Outcomes,
		Chaos:        chaos,
		LostSessions: s.Lost,
	}
	rep.Retries = cl.Retries()
	if runErr != nil {
		return rep, fmt.Errorf("switchd: attack: %w", runErr)
	}
	rep.ServerPhases = s.PhaseMeans()
	// Record the trace ids worth a server-side look: every blocked
	// connect (up to a cap) and the slowest round trips.
	const maxBlockedTraces, maxSlowTraces = 16, 5
	for _, t := range s.Traces {
		if traffic.IsBlockedCode(t.Outcome) && len(rep.BlockedTraces) < maxBlockedTraces {
			rep.BlockedTraces = append(rep.BlockedTraces, t)
		}
	}
	slow := append([]TraceRef(nil), s.Traces...)
	sort.Slice(slow, func(i, j int) bool { return slow[i].Micros > slow[j].Micros })
	if len(slow) > maxSlowTraces {
		slow = slow[:maxSlowTraces]
	}
	rep.SlowestTraces = slow
	rep.ConnectLatency = traffic.LatencyQuantiles(s.Latencies)
	if secs := trep.Duration.Seconds(); secs > 0 {
		rep.OpsPerSec = float64(rep.Connects+rep.Disconnects) / secs
		rep.ConnectsPerSec = float64(rep.Connects) / secs
	}
	if rep.Connects > 0 {
		rep.BlockingProbability = float64(rep.Blocked) / float64(rep.Connects)
	}
	if rep.Server, err = cl.MetricsSnapshot(ctx); err != nil {
		return rep, fmt.Errorf("switchd: attack: fetching target metrics: %w", err)
	}
	return rep, nil
}

// runChaos fires the scheduled events in order, sleeping out each
// offset relative to start; ctx cancellation ends the schedule early.
func runChaos(ctx context.Context, cl *client.Client, start time.Time, events []ChaosEvent) []ChaosOutcome {
	var out []ChaosOutcome
	for _, ev := range events {
		wait := time.Until(start.Add(ev.At))
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return out
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return out
		}
		oc := ChaosOutcome{ChaosEvent: ev}
		switch ev.Action {
		case ChaosFail:
			rep, err := cl.Fail(ctx, ev.Fabric, ev.Middle)
			if err != nil {
				oc.Error = err.Error()
			} else {
				oc.Migrated = len(rep.Migrated)
				oc.Dropped = len(rep.Dropped)
				oc.Health = rep.Health.Status
			}
		case ChaosRepair:
			rep, err := cl.Repair(ctx, ev.Fabric, ev.Middle)
			if err != nil {
				oc.Error = err.Error()
			} else {
				oc.Health = rep.Health.Status
			}
		}
		out = append(out, oc)
	}
	return out
}
