// Package client is the typed Go client of the switchd /v1 serving
// API. It speaks the api package's wire contract — requests, responses,
// and the {"error":{"code":...}} envelope — so callers branch on
// api.Error codes (api.IsCode), never on HTTP status lines or message
// text. The in-repo consumers (the traffic engine behind wdmload,
// wdmtop) are built on it; nothing in the repository constructs raw /v1
// requests. The server publishes its counters, phase timings and load
// only on /metrics, which Prom reads.
//
// Construction is functional-options style:
//
//	c := client.New("http://localhost:8047",
//		client.WithTimeout(2*time.Second),
//		client.WithRetry(client.RetryPolicy{MaxAttempts: 4}),
//	)
//
// With a retry policy, requests answered 429 (admission_full) or 503
// (draining, fabric_failed, storage_failed, not_primary) are retried
// with jittered exponential backoff — the statuses that signal "later
// may differ": a derated cap refills as sessions end, a failed plane
// comes back on repair, a standby finishes promoting. Transport-level
// failures with the same property — connection refused/reset, torn
// connections — retry identically, so a client pointed at a failing
// shard rides out the promotion window with no special cases (see
// ShardedClient). 409 blocked is never retried (same fabric state,
// same answer) — and neither are its backend-specific sub-codes
// wavelength_conflict and split_incapable (see IsBlocked/IsPermanent)
// — nor are 4xx client errors or context cancellation.
//
// Tracing: every request carries a W3C traceparent when one is
// available — either from the span active on the context (server-side
// callers) or injected with ContextWithTraceparent (clients that
// generate their own ids to join against /v1/debug/spans). The trace
// id is a request's only name: the server echoes it in the traceparent
// response header and logs it on the request line.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs/slo"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/switchd/api"
)

// RetryPolicy bounds the client's retry loop. The zero value disables
// retries (one attempt).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values below 1 mean 1.
	MaxAttempts int
	// BaseDelay is the first backoff (default 5ms); each retry doubles
	// it up to MaxDelay (default 500ms), then a uniform jitter in
	// [0.5, 1.5) of the delay is applied so synchronized clients spread.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	return p
}

// Client is a typed /v1 API client. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retry   RetryPolicy
	retries atomic.Int64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client
// (http.DefaultClient otherwise).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout bounds each request (including all its retries) when the
// caller's context carries no earlier deadline.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithRetry enables jittered-exponential-backoff retries on 429/503.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p.withDefaults() } }

// New builds a client for the server at baseURL (no trailing slash
// needed; one is trimmed).
func New(baseURL string, opts ...Option) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	c := &Client{base: baseURL, hc: http.DefaultClient, retry: RetryPolicy{}.withDefaults()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Retries returns the total retry attempts (sleeps taken) this client
// has performed.
func (c *Client) Retries() int64 { return c.retries.Load() }

type tpKey struct{}

// ContextWithTraceparent returns a context that makes every request
// sent with it carry the given W3C traceparent header, so the caller
// knows the trace id server-side artifacts will be filed under.
func ContextWithTraceparent(ctx context.Context, traceparent string) context.Context {
	return context.WithValue(ctx, tpKey{}, traceparent)
}

// traceparentFrom resolves the header to send: an explicit
// ContextWithTraceparent wins, else the span active on the context.
func traceparentFrom(ctx context.Context) string {
	if tp, ok := ctx.Value(tpKey{}).(string); ok && tp != "" {
		return tp
	}
	if sp := span.FromContext(ctx); sp.Active() {
		return sp.Traceparent()
	}
	return ""
}

// retryableStatus reports whether a status line signals a condition a
// backoff can outlive: 429 (admission_full — the cap refills) and 503
// (draining, fabric_failed, storage_failed, not_primary — a repair,
// restart, or promotion changes the answer). All four 503 codes are
// deliberately in scope: storage_failed on a clustered shard means the
// primary is dying and a standby is about to take over, and not_primary
// means a standby has not finished promoting yet — in both cases the
// retry (or the ShardedClient's failover re-route) lands on a serving
// node.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// transportRetryable reports whether a transport-level error (no HTTP
// response at all) is worth retrying: connection refused or reset, a
// torn connection (EOF), or any dial failure. These are exactly the
// failover signals — a killed primary refuses connections — so they
// must retry with the same backoff as a 503, never surface on the
// first attempt. Context cancellation and deadline expiry are the
// caller's own signals and are never retried.
func transportRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	// A dying server killing a reused keep-alive connection surfaces as
	// net/http's unexported errServerClosedIdle; the transport only
	// auto-retries it for bodyless requests, so POSTs see it raw and the
	// message is the only handle the stdlib exposes.
	if strings.Contains(err.Error(), "server closed idle connection") {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// do sends one request (with retries) and returns the final status and
// body. body may be nil for GETs; it is re-sent verbatim per attempt.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	if c.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	tp := traceparentFrom(ctx)
	delay := c.retry.BaseDelay
	// backoff sleeps one jittered exponential step; false once the
	// context is done.
	backoff := func() bool {
		jittered := time.Duration(float64(delay) * (0.5 + rand.Float64()))
		c.retries.Add(1)
		t := time.NewTimer(jittered)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
		if delay *= 2; delay > c.retry.MaxDelay {
			delay = c.retry.MaxDelay
		}
		return true
	}
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if tp != "" {
			req.Header.Set(span.TraceparentHeader, tp)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if attempt >= c.retry.MaxAttempts || !transportRetryable(err) || !backoff() {
				return 0, nil, err
			}
			continue
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return resp.StatusCode, nil, err
		}
		if !retryableStatus(resp.StatusCode) || attempt >= c.retry.MaxAttempts {
			return resp.StatusCode, respBody, nil
		}
		// Jittered exponential backoff; a canceled context cuts the wait
		// short and returns the last answer.
		if !backoff() {
			return resp.StatusCode, respBody, nil
		}
	}
}

// decodeError turns a non-2xx response into an *api.Error. A body that
// does not parse as the envelope (a non-/v1 path, a proxy) degrades to
// a generic error carrying the status.
func decodeError(status int, body []byte) error {
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.HTTPStatus = status
		return env.Error
	}
	return fmt.Errorf("client: unexpected status %d: %s", status, bytes.TrimSpace(body))
}

// call is the common POST/GET + decode path for endpoints with the
// standard 200-or-envelope shape.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, respBody, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return decodeError(status, respBody)
	}
	if out != nil {
		return json.Unmarshal(respBody, out)
	}
	return nil
}

// Connect routes a new session. fabric pins a plane; pass -1 for the
// controller's choice.
func (c *Client) Connect(ctx context.Context, connection string, fabric int) (api.ConnectResponse, error) {
	req := api.ConnectRequest{Connection: connection}
	if fabric >= 0 {
		req.Fabric = &fabric
	}
	var out api.ConnectResponse
	err := c.call(ctx, http.MethodPost, "/v1/connect", req, &out)
	return out, err
}

// Branch grows a session by additional destination slots (wdm codec
// form, e.g. "12.0").
func (c *Client) Branch(ctx context.Context, session uint64, dests ...string) (api.SessionInfo, error) {
	var out api.SessionInfo
	err := c.call(ctx, http.MethodPost, "/v1/branch", api.BranchRequest{Session: session, Dests: dests}, &out)
	return out, err
}

// Disconnect tears a session down.
func (c *Client) Disconnect(ctx context.Context, session uint64) (api.DisconnectResponse, error) {
	var out api.DisconnectResponse
	err := c.call(ctx, http.MethodPost, "/v1/disconnect", api.DisconnectRequest{Session: session}, &out)
	return out, err
}

// Session fetches one live session's snapshot.
func (c *Client) Session(ctx context.Context, id uint64) (api.SessionInfo, error) {
	var out api.SessionInfo
	err := c.call(ctx, http.MethodGet, "/v1/session?id="+strconv.FormatUint(id, 10), nil, &out)
	return out, err
}

// Status fetches the controller-wide status snapshot.
func (c *Client) Status(ctx context.Context) (api.Status, error) {
	var out api.Status
	err := c.call(ctx, http.MethodGet, "/v1/status", nil, &out)
	return out, err
}

// Fabrics fetches capability discovery: every fabric backend the
// server can serve, with the active one flagged Current.
func (c *Client) Fabrics(ctx context.Context) (api.FabricsResponse, error) {
	var out api.FabricsResponse
	err := c.call(ctx, http.MethodGet, "/v1/fabrics", nil, &out)
	return out, err
}

// Version fetches the server's build and backend identity.
func (c *Client) Version(ctx context.Context) (api.VersionInfo, error) {
	var out api.VersionInfo
	err := c.call(ctx, http.MethodGet, "/v1/version", nil, &out)
	return out, err
}

// IsBlocked reports whether err is the fabric's 409 blocked class —
// the generic blocked code or one of the backend-specific sub-codes
// (wavelength_conflict, split_incapable). None of them are retried by
// the client: the generic class and wavelength_conflict only change
// when fabric occupancy does, and split_incapable never changes (the
// request is structurally unrealizable on its backend — see
// IsPermanent).
func IsBlocked(err error) bool {
	switch api.CodeOf(err) {
	case api.CodeBlocked, api.CodeWavelengthConflict, api.CodeSplitIncapable:
		return true
	}
	return false
}

// IsPermanent reports whether err can never succeed no matter how
// fabric state evolves: split_incapable means the mesh backend's
// splitting structure cannot realize the requested fanout even idle.
// Callers should drop such requests instead of resubmitting them.
func IsPermanent(err error) bool { return api.IsCode(err, api.CodeSplitIncapable) }

// Health fetches the failure-plane snapshot. A critical instance
// answers 503 with the same body, so that status decodes as Health too
// rather than as an error — callers branch on Health.Status.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var out api.Health
	status, body, err := c.do(ctx, http.MethodGet, "/v1/health", nil)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK && status != http.StatusServiceUnavailable {
		return out, decodeError(status, body)
	}
	return out, json.Unmarshal(body, &out)
}

// Fail marks one middle module of one fabric plane failed and returns
// what the failure plane did to the sessions riding it.
func (c *Client) Fail(ctx context.Context, fabric, middle int) (api.FailReport, error) {
	var out api.FailReport
	err := c.call(ctx, http.MethodPost, "/v1/admin/fail", api.FailRequest{Fabric: fabric, Middle: middle}, &out)
	return out, err
}

// Repair returns a failed middle module to service.
func (c *Client) Repair(ctx context.Context, fabric, middle int) (api.RepairReport, error) {
	var out api.RepairReport
	err := c.call(ctx, http.MethodPost, "/v1/admin/repair", api.FailRequest{Fabric: fabric, Middle: middle}, &out)
	return out, err
}

// SLO fetches the SLO view: per-window SLIs and burn rates with the
// multiwindow alerts (404 not_found on a server without metrics
// history).
func (c *Client) SLO(ctx context.Context) (slo.Snapshot, error) {
	var out slo.Snapshot
	err := c.call(ctx, http.MethodGet, "/v1/slo", nil, &out)
	return out, err
}

// Spans fetches completed traces from the tail-sampled ring. rawQuery
// ("blocked=1", "trace=<id>", "limit=N", or combinations) filters
// server-side; pass "" for everything.
func (c *Client) Spans(ctx context.Context, rawQuery string) (api.SpansResponse, error) {
	path := "/v1/debug/spans"
	if rawQuery != "" {
		path += "?" + rawQuery
	}
	var out api.SpansResponse
	err := c.call(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Prom fetches the Prometheus text exposition at /metrics.
func (c *Client) Prom(ctx context.Context) (string, error) {
	status, body, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", decodeError(status, body)
	}
	return string(body), nil
}

// Query runs an instant or range query against the server's embedded
// metrics history. rawQuery is the URL-encoded parameter string, e.g.
// "query=rate(wdm_blocked_total[30s])&start=-5m&step=1s".
func (c *Client) Query(ctx context.Context, rawQuery string) (tsdb.QueryResult, error) {
	var out tsdb.QueryResult
	err := c.call(ctx, http.MethodGet, "/v1/query?"+rawQuery, nil, &out)
	return out, err
}

// FleetQuery runs a federated range query at /v1/cluster/query
// (cluster mode: per-shard series gain a shard label plus a summed
// fleet series). The response decodes as a plain QueryResult; the
// federation extras (shard count, down shards) are ignored here.
func (c *Client) FleetQuery(ctx context.Context, rawQuery string) (tsdb.QueryResult, error) {
	var out tsdb.QueryResult
	err := c.call(ctx, http.MethodGet, "/v1/cluster/query?"+rawQuery, nil, &out)
	return out, err
}

// Alerts fetches the alerting rules engine's per-rule states.
func (c *Client) Alerts(ctx context.Context) ([]tsdb.AlertStatus, error) {
	var out struct {
		Alerts []tsdb.AlertStatus `json:"alerts"`
	}
	err := c.call(ctx, http.MethodGet, "/v1/alerts", nil, &out)
	return out.Alerts, err
}

// FleetProm fetches the fleet-merged exposition at /v1/cluster/metrics
// (cluster mode: counters and histograms summed across shards, gauges
// labeled per shard).
func (c *Client) FleetProm(ctx context.Context) (string, error) {
	status, body, err := c.do(ctx, http.MethodGet, "/v1/cluster/metrics", nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", decodeError(status, body)
	}
	return string(body), nil
}
