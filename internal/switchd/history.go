package switchd

import (
	"context"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/internal/switchd/api"
)

// Metrics history plane: a background self-scraper samples the
// controller's own registry (WriteProm, the samples /metrics serves,
// taken as values rather than text) into an embedded time-series
// store with downsampling tiers, served at /v1/query; an alerting
// rules engine evaluates after every scrape and serves /v1/alerts; the
// SLO view evaluates its sliding windows against the same store and
// serves /v1/slo. Enabled by Config.HistoryInterval > 0; every
// endpoint answers 404 not_found while disabled.

// startHistory builds the store and alert engine and starts the
// scrape loop. Called by New after the controller is fully built.
func (ctl *Controller) startHistory() error {
	cfg := ctl.cfg
	store := tsdb.New(tsdb.Config{
		Interval: cfg.HistoryInterval,
		Collect:  ctl.WriteProm,
		Logger:   ctl.logger,
	})
	rules := cfg.Alerts
	if rules == nil {
		rules = tsdb.DefaultRules()
	}
	eng, err := tsdb.NewAlertEngine(store, rules, tsdb.AlertOpts{
		Logger:     ctl.logger,
		WebhookURL: cfg.AlertWebhook,
	})
	if err != nil {
		return err
	}
	ctl.store = store
	ctl.alertEng = eng
	hctx, cancel := context.WithCancel(context.Background())
	ctl.histCancel = cancel
	ctl.histDone = make(chan struct{})
	go func() {
		defer close(ctl.histDone)
		store.Run(hctx, func(at time.Time) { eng.Eval(at) })
	}()
	return nil
}

// stopHistory stops the scrape loop and waits it out. Idempotent via
// closeOnce (only Close/Crash call it).
func (ctl *Controller) stopHistory() {
	if ctl.histCancel != nil {
		ctl.histCancel()
		<-ctl.histDone
	}
}

// History returns the embedded time-series store (nil while disabled).
func (ctl *Controller) History() *tsdb.Store { return ctl.store }

// Alerts returns the alert engine's current per-rule states (nil
// while history is disabled).
func (ctl *Controller) Alerts() []tsdb.AlertStatus {
	if ctl.alertEng == nil {
		return nil
	}
	return ctl.alertEng.Snapshot()
}

// sloBucket indexes the operation-latency bucket whose upper bound is
// the SLO latency threshold; sloLE is that bucket's le label on
// /metrics, so the history holds its cumulative count.
var (
	sloBucket = slices.Index(routeBucketsMicros, slo.LatencyThreshold.Microseconds())
	sloLE     = strconv.FormatFloat(slo.LatencyThreshold.Seconds(), 'g', -1, 64)
)

// sloCounts reads the SLIs' inputs from the registry atomics: routing
// operations and blocks as wdm_route_ops_total and wdm_blocked_total
// count them, and the connect and branch latency histograms with the
// observations above the threshold bucket.
func (m *Metrics) sloCounts() slo.Counts {
	bad := m.Blocked()
	c := slo.Counts{Ops: m.connectOK.Load() + m.branchOK.Load() + bad, Bad: bad}
	for _, h := range [...]*latencyHist{m.connectLat, m.branchLat} {
		for i := range h.buckets {
			n := h.buckets[i].Load()
			c.Timed += n
			if i > sloBucket {
				c.Slow += n
			}
		}
	}
	return c
}

// sloCountsAt reads the same counts at time t from the history's copies
// of the /metrics series.
func (ctl *Controller) sloCountsAt(t time.Time) slo.Counts {
	at := func(name string, labels map[string]string) int64 {
		return int64(ctl.store.CounterAt(name, labels, t))
	}
	c := slo.Counts{Ops: at("wdm_route_ops_total", nil), Bad: at("wdm_blocked_total", nil)}
	for _, op := range [...]string{"connect", "branch"} {
		n := at("wdm_op_latency_seconds_count", map[string]string{"op": op})
		c.Timed += n
		c.Slow += n - at("wdm_op_latency_seconds_bucket", map[string]string{"op": op, "le": sloLE})
	}
	return c
}

// SLO evaluates the SLO view at the current time; ok is false while
// the history (and with it every window baseline) is disabled.
func (ctl *Controller) SLO() (snap slo.Snapshot, ok bool) {
	if ctl.store == nil {
		return slo.Snapshot{}, false
	}
	return slo.Evaluate(time.Now(), ctl.metrics.sloCounts(), ctl.sloCountsAt), true
}

// SetFederationProbe registers (or clears, with nil) the callback that
// reports federation peer reachability. The cluster layer sets it when
// peers are configured; its result appears as the federation rows of
// GET /v1/health.
func (ctl *Controller) SetFederationProbe(probe func() []api.FederationPeerHealth) {
	if probe == nil {
		ctl.fedProbe.Store(nil)
		return
	}
	ctl.fedProbe.Store(&probe)
}

// federationHealth runs the registered probe, if any.
func (ctl *Controller) federationHealth() []api.FederationPeerHealth {
	if p := ctl.fedProbe.Load(); p != nil {
		return (*p)()
	}
	return nil
}

// handleQuery serves GET /v1/query: instant and range queries over the
// embedded history (?query=, ?start=, ?end=, ?step=).
func (ctl *Controller) handleQuery(w http.ResponseWriter, r *http.Request) {
	if ctl.store == nil {
		writeErrorCode(w, http.StatusNotFound, api.CodeNotFound, "metrics history disabled (start with a history interval)")
		return
	}
	expr, opts, err := tsdb.OptsFromValues(r.URL.Query(), time.Now())
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	res, err := ctl.store.Query(expr, opts)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleAlerts serves GET /v1/alerts: every rule's state machine.
func (ctl *Controller) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if ctl.alertEng == nil {
		writeErrorCode(w, http.StatusNotFound, api.CodeNotFound, "alerting disabled (start with a history interval)")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"alerts": ctl.alertEng.Snapshot()})
}

// handleSLO serves GET /v1/slo: sliding-window SLIs and multiwindow
// burn alerts.
func (ctl *Controller) handleSLO(w http.ResponseWriter, r *http.Request) {
	snap, ok := ctl.SLO()
	if !ok {
		writeErrorCode(w, http.StatusNotFound, api.CodeNotFound, "SLO view disabled (start with a history interval)")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleDebugTSDB serves GET /v1/debug/tsdb: the store's full contents
// (stats plus every series' tiers), the alert-demo CI artifact.
func (ctl *Controller) handleDebugTSDB(w http.ResponseWriter, r *http.Request) {
	if ctl.store == nil {
		writeErrorCode(w, http.StatusNotFound, api.CodeNotFound, "metrics history disabled (start with a history interval)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = ctl.store.DumpJSON(w)
}
