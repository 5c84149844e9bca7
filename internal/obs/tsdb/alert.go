package tsdb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"
)

// The alerting rules engine evaluates rules against the embedded store
// after every scrape. Two forms:
//
//	threshold  — an instant query compared against a constant; any
//	             matching series in violation trips the rule
//	absent     — no sample of a selector within a window (dead-man's
//	             switch for the scrape loop itself)
//
// A multi-window burn alert is a threshold rule on one window's
// wdm_slo_*_burn gauge guarded by the other window's: the SLO view
// computes the burn once, and the rule only compares it.
//
// A tripped rule runs pending for its For duration before firing;
// transitions notify via slog and, when configured, a webhook POST.

// Duration marshals as a Go duration string ("30s") in rule files; a
// bare JSON number is seconds.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("tsdb: bad duration %q: %w", s, err)
		}
		*d = Duration(dd)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("tsdb: duration must be a string like \"30s\" or seconds: %w", err)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Condition is a guard clause: the rule is eligible only while the
// guard's instant query satisfies its comparison (no data means the
// guard does not hold).
type Condition struct {
	Expr  string  `json:"expr"`
	Op    string  `json:"op"`
	Value float64 `json:"value"`
}

// Rule is one alerting rule, the unit of the -alerts file.
type Rule struct {
	Name    string `json:"name"`
	Form    string `json:"form,omitempty"` // "threshold" (default), "absent"
	Summary string `json:"summary,omitempty"`
	// For is how long the condition must hold before pending escalates
	// to firing; 0 fires immediately.
	For Duration `json:"for,omitempty"`
	// Guard, when set, gates the rule.
	Guard *Condition `json:"guard,omitempty"`

	// Threshold form: instant query Expr compared Op against Value.
	Expr  string  `json:"expr,omitempty"`
	Op    string  `json:"op,omitempty"`
	Value float64 `json:"value,omitempty"`

	// Absent form: trips when Expr has no sample within Window
	// (default 5 scrape intervals).
	Window Duration `json:"window,omitempty"`
}

// Validate checks a rule's shape and compiles its expressions.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("tsdb: rule with empty name")
	}
	wrap := func(err error) error { return fmt.Errorf("tsdb: rule %s: %w", r.Name, err) }
	switch r.Form {
	case "", "threshold":
		if err := ValidateExpr(r.Expr); err != nil {
			return wrap(err)
		}
		if !validOp(r.Op) {
			return wrap(fmt.Errorf("bad op %q", r.Op))
		}
	case "absent":
		if err := ValidateExpr(r.Expr); err != nil {
			return wrap(err)
		}
	default:
		return wrap(fmt.Errorf("unknown form %q", r.Form))
	}
	if r.Guard != nil {
		if err := ValidateExpr(r.Guard.Expr); err != nil {
			return wrap(fmt.Errorf("guard: %w", err))
		}
		if !validOp(r.Guard.Op) {
			return wrap(fmt.Errorf("guard: bad op %q", r.Guard.Op))
		}
	}
	return nil
}

func validOp(op string) bool {
	switch op {
	case ">", ">=", "<", "<=", "==", "!=":
		return true
	}
	return false
}

func cmp(v float64, op string, against float64) bool {
	switch op {
	case ">":
		return v > against
	case ">=":
		return v >= against
	case "<":
		return v < against
	case "<=":
		return v <= against
	case "==":
		return v == against
	case "!=":
		return v != against
	}
	return false
}

// DefaultRules is the shipped ruleset: the paper's operating invariant
// first — blocking observed while the fabric is configured at or above
// the sufficient bound (wdm_m_margin >= 0) is a theorem violation, not
// an overload — then admission derating, replication lag, WAL fsync
// latency, a scrape dead-man's switch, and the SLO view's fast
// availability burn alert (5m burn over 14.4, guarded by the 1h burn).
func DefaultRules() []Rule {
	return []Rule{
		{
			Name:    "blocked_in_nonblocking_regime",
			Expr:    "rate(wdm_blocked_total[30s])",
			Op:      ">",
			Value:   0,
			For:     Duration(5 * time.Second),
			Guard:   &Condition{Expr: "wdm_m_margin", Op: ">=", Value: 0},
			Summary: "P_block > 0 while m >= sufficient bound: middle-stage failures or routing faults are violating the nonblocking theorem",
		},
		{
			Name:    "degraded_admission",
			Expr:    "wdm_degraded",
			Op:      ">",
			Value:   0,
			For:     Duration(10 * time.Second),
			Summary: "failure plane derated admission capacity",
		},
		{
			Name:    "replication_lag",
			Expr:    "wdm_replication_lag_records",
			Op:      ">",
			Value:   128,
			For:     Duration(15 * time.Second),
			Summary: "standby replication lag above 128 records",
		},
		{
			Name:    "wal_fsync_p99_slow",
			Expr:    "histogram_quantile(0.99, wdm_wal_fsync_seconds[1m])",
			Op:      ">",
			Value:   0.010,
			For:     Duration(30 * time.Second),
			Summary: "WAL fsync p99 above 10ms",
		},
		{
			Name:    "self_scrape_absent",
			Form:    "absent",
			Expr:    "wdm_uptime_seconds",
			Window:  Duration(30 * time.Second),
			Summary: "metrics history self-scrape has stopped",
		},
		{
			Name:    "availability_burn",
			Expr:    `wdm_slo_availability_burn{window="5m"}`,
			Op:      ">",
			Value:   14.4,
			Guard:   &Condition{Expr: `wdm_slo_availability_burn{window="1h"}`, Op: ">", Value: 14.4},
			Summary: "route availability burning the 0.999 error budget at page speed",
		},
	}
}

// LoadRules reads a -alerts file: {"rules": [Rule, ...]}.
func LoadRules(path string) ([]Rule, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tsdb: alerts file: %w", err)
	}
	var doc struct {
		Rules []Rule `json:"rules"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("tsdb: alerts file %s: %w", path, err)
	}
	seen := map[string]bool{}
	for i := range doc.Rules {
		if err := doc.Rules[i].Validate(); err != nil {
			return nil, err
		}
		if seen[doc.Rules[i].Name] {
			return nil, fmt.Errorf("tsdb: duplicate rule name %q", doc.Rules[i].Name)
		}
		seen[doc.Rules[i].Name] = true
	}
	return doc.Rules, nil
}

// AlertState is one rule's place in the inactive → pending → firing
// machine.
type AlertState string

const (
	StateInactive AlertState = "inactive"
	StatePending  AlertState = "pending"
	StateFiring   AlertState = "firing"
)

// AlertStatus is one rule's externally visible state — the /v1/alerts
// wire shape.
type AlertStatus struct {
	Rule     Rule       `json:"rule"`
	State    AlertState `json:"state"`
	Since    *time.Time `json:"since,omitempty"` // pending or firing start
	Value    float64    `json:"value"`           // last evaluated value
	LastEval *time.Time `json:"last_eval,omitempty"`
	Fired    int        `json:"fired"` // lifetime pending→firing transitions
}

// AlertEvent is one notified transition (webhook POST body).
type AlertEvent struct {
	Rule    string     `json:"rule"`
	State   AlertState `json:"state"` // firing or inactive (resolved)
	Value   float64    `json:"value"`
	Summary string     `json:"summary,omitempty"`
	At      time.Time  `json:"at"`
}

// AlertOpts configures an AlertEngine.
type AlertOpts struct {
	Now        func() time.Time
	Logger     *slog.Logger
	WebhookURL string
	Client     *http.Client
	// Notify overrides the default slog+webhook notifier (tests).
	Notify func(AlertEvent)
}

type alertRuntime struct {
	rule  Rule
	state AlertState
	since time.Time
	value float64
	eval  time.Time
	fired int
}

// AlertEngine evaluates a ruleset against a Store.
type AlertEngine struct {
	store   *Store
	now     func() time.Time
	logger  *slog.Logger
	webhook string
	client  *http.Client
	notify  func(AlertEvent)

	mu    sync.Mutex
	rules []*alertRuntime
}

// NewAlertEngine builds an engine over validated rules (invalid rules
// are rejected — callers load through LoadRules or DefaultRules).
func NewAlertEngine(store *Store, rules []Rule, opts AlertOpts) (*AlertEngine, error) {
	e := &AlertEngine{
		store:   store,
		now:     opts.Now,
		logger:  opts.Logger,
		webhook: opts.WebhookURL,
		client:  opts.Client,
		notify:  opts.Notify,
	}
	if e.now == nil {
		e.now = store.cfg.Now
	}
	if e.logger == nil {
		e.logger = store.logger
	}
	if e.client == nil {
		e.client = &http.Client{Timeout: 5 * time.Second}
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, err
		}
		e.rules = append(e.rules, &alertRuntime{rule: rules[i], state: StateInactive})
	}
	return e, nil
}

// Eval runs one evaluation pass at now, driving every state machine.
func (e *AlertEngine) Eval(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rt := range e.rules {
		v, violated := e.evalRule(&rt.rule, now)
		rt.eval, rt.value = now, v
		switch {
		case violated && rt.state == StateInactive:
			rt.state, rt.since = StatePending, now
			if time.Duration(rt.rule.For) <= 0 {
				e.toFiring(rt, now)
			}
		case violated && rt.state == StatePending:
			if now.Sub(rt.since) >= time.Duration(rt.rule.For) {
				e.toFiring(rt, now)
			}
		case !violated && rt.state == StatePending:
			rt.state, rt.since = StateInactive, time.Time{}
		case !violated && rt.state == StateFiring:
			rt.state, rt.since = StateInactive, time.Time{}
			e.send(AlertEvent{Rule: rt.rule.Name, State: StateInactive, Value: v, Summary: rt.rule.Summary, At: now})
		}
	}
}

func (e *AlertEngine) toFiring(rt *alertRuntime, now time.Time) {
	rt.state = StateFiring
	rt.fired++
	e.send(AlertEvent{Rule: rt.rule.Name, State: StateFiring, Value: rt.value, Summary: rt.rule.Summary, At: now})
}

// evalRule evaluates one rule's condition at now. The reported value
// is the worst offender (threshold) or seconds since the last sample
// (absent).
func (e *AlertEngine) evalRule(r *Rule, now time.Time) (float64, bool) {
	if r.Guard != nil && !e.holds(r.Guard, now) {
		return 0, false
	}
	switch r.Form {
	case "absent":
		w := time.Duration(r.Window)
		if w <= 0 {
			w = 5 * e.store.Interval()
		}
		last, ok := e.store.LastSampleTime(r.Expr)
		if !ok {
			return w.Seconds(), true
		}
		age := now.Sub(last)
		return age.Seconds(), age > w
	default: // threshold
		res, err := e.store.Query(r.Expr, QueryOpts{End: now})
		if err != nil {
			e.logger.Warn("alert rule query failed", "rule", r.Name, "err", err)
			return 0, false
		}
		worst, violated := 0.0, false
		for _, ser := range res.Series {
			for _, p := range ser.Points {
				if cmp(p.V, r.Op, r.Value) {
					if !violated || p.V > worst {
						worst = p.V
					}
					violated = true
				}
			}
		}
		return worst, violated
	}
}

// holds evaluates a guard: at least one matching series must satisfy
// the comparison.
func (e *AlertEngine) holds(c *Condition, now time.Time) bool {
	res, err := e.store.Query(c.Expr, QueryOpts{End: now})
	if err != nil {
		return false
	}
	for _, ser := range res.Series {
		for _, p := range ser.Points {
			if cmp(p.V, c.Op, c.Value) {
				return true
			}
		}
	}
	return false
}

// send dispatches one transition notification: the custom notifier
// when set, otherwise slog plus (asynchronously) the webhook.
func (e *AlertEngine) send(ev AlertEvent) {
	if e.notify != nil {
		e.notify(ev)
		return
	}
	if ev.State == StateFiring {
		e.logger.Warn("ALERT firing", "rule", ev.Rule, "value", ev.Value, "summary", ev.Summary)
	} else {
		e.logger.Info("alert resolved", "rule", ev.Rule, "value", ev.Value)
	}
	if e.webhook == "" {
		return
	}
	go func() {
		body, _ := json.Marshal(ev)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.webhook, bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := e.client.Do(req)
		if err != nil {
			e.logger.Warn("alert webhook failed", "rule", ev.Rule, "err", err)
			return
		}
		resp.Body.Close()
	}()
}

// Snapshot reports every rule's current status, rule order preserved.
func (e *AlertEngine) Snapshot() []AlertStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertStatus, 0, len(e.rules))
	for _, rt := range e.rules {
		st := AlertStatus{Rule: rt.rule, State: rt.state, Value: rt.value, Fired: rt.fired}
		if !rt.since.IsZero() {
			t := rt.since
			st.Since = &t
		}
		if !rt.eval.IsZero() {
			t := rt.eval
			st.LastEval = &t
		}
		out = append(out, st)
	}
	return out
}
