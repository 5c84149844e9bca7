package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/span"
	"repro/internal/switchd"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

// result is one timed call into a layer. d covers the layer's public
// call only; request encoding and response checks happen outside it.
type result struct {
	id      uint64
	blocked bool
	conn    string // read: the session's connection in wdm codec form
	d       time.Duration
	err     error
}

// layer is one rung of the ladder: the same four requests, served by
// the public API of a different layer of the program.
type layer interface {
	connect(c wdm.Connection) result
	branch(id uint64, dests []wdm.PortWave) result
	read(id uint64) result
	disconnect(id uint64) result
}

// backendLayer calls a fabric backend directly: route search alone.
type backendLayer struct{ b backend.Backend }

func (l *backendLayer) connect(c wdm.Connection) result {
	t := time.Now()
	id, err := l.b.Add(c)
	d := time.Since(t)
	return result{id: uint64(id), blocked: multistage.IsBlocked(err), d: d, err: err}
}

func (l *backendLayer) branch(id uint64, dests []wdm.PortWave) result {
	t := time.Now()
	err := l.b.AddBranch(int(id), dests...)
	d := time.Since(t)
	return result{blocked: multistage.IsBlocked(err), d: d, err: err}
}

func (l *backendLayer) read(id uint64) result {
	t := time.Now()
	c, ok := l.b.Connection(int(id))
	d := time.Since(t)
	if !ok {
		return result{d: d, err: fmt.Errorf("backend: no connection %d", id)}
	}
	return result{conn: wdm.FormatConnection(c.Normalize()), d: d}
}

func (l *backendLayer) disconnect(id uint64) result {
	t := time.Now()
	err := l.b.Release(int(id))
	return result{d: time.Since(t), err: err}
}

// switchdLayer calls the Controller's exported methods: admission,
// session table, plane lock, and route search.
type switchdLayer struct {
	ctl   *switchd.Controller
	plane int
}

func (l *switchdLayer) connect(c wdm.Connection) result {
	t := time.Now()
	id, _, err := l.ctl.Connect(context.Background(), c, l.plane)
	d := time.Since(t)
	return result{id: id, blocked: multistage.IsBlocked(err), d: d, err: err}
}

func (l *switchdLayer) branch(id uint64, dests []wdm.PortWave) result {
	t := time.Now()
	err := l.ctl.AddBranch(context.Background(), id, dests...)
	d := time.Since(t)
	return result{blocked: multistage.IsBlocked(err), d: d, err: err}
}

func (l *switchdLayer) read(id uint64) result {
	t := time.Now()
	info, ok := l.ctl.Session(id)
	d := time.Since(t)
	if !ok {
		return result{d: d, err: fmt.Errorf("switchd: no session %d", id)}
	}
	return result{conn: info.Conn, d: d}
}

func (l *switchdLayer) disconnect(id uint64) result {
	t := time.Now()
	err := l.ctl.Disconnect(context.Background(), id)
	return result{d: time.Since(t), err: err}
}

// httpLayer calls the controller's HTTP handler in process: request
// decode, handler, response encode. Only ServeHTTP is timed.
type httpLayer struct {
	h     http.Handler
	plane int
}

func (l *httpLayer) serve(method, path string, body any) (*httptest.ResponseRecorder, time.Duration) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			panic(err) // the request types always marshal
		}
		rd = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	t := time.Now()
	l.h.ServeHTTP(w, req)
	return w, time.Since(t)
}

// httpResult decodes a handler answer: 200 into out, 409 as a block,
// anything else as an error carrying the envelope.
func httpResult(w *httptest.ResponseRecorder, d time.Duration, out any) result {
	switch w.Code {
	case http.StatusOK:
		if out != nil {
			if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
				return result{d: d, err: err}
			}
		}
		return result{d: d}
	case http.StatusConflict:
		return result{d: d, blocked: true, err: errors.New(w.Body.String())}
	default:
		return result{d: d, err: fmt.Errorf("http %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))}
	}
}

func (l *httpLayer) connect(c wdm.Connection) result {
	plane := l.plane
	w, d := l.serve(http.MethodPost, "/v1/connect", api.ConnectRequest{Connection: wdm.FormatConnection(c), Fabric: &plane})
	var cr api.ConnectResponse
	r := httpResult(w, d, &cr)
	r.id = cr.Session
	return r
}

func (l *httpLayer) branch(id uint64, dests []wdm.PortWave) result {
	w, d := l.serve(http.MethodPost, "/v1/branch", api.BranchRequest{Session: id, Dests: slotStrings(dests)})
	return httpResult(w, d, nil)
}

func (l *httpLayer) read(id uint64) result {
	w, d := l.serve(http.MethodGet, fmt.Sprintf("/v1/session?id=%d", id), nil)
	var info api.SessionInfo
	r := httpResult(w, d, &info)
	r.conn = info.Conn
	return r
}

func (l *httpLayer) disconnect(id uint64) result {
	w, d := l.serve(http.MethodPost, "/v1/disconnect", api.DisconnectRequest{Session: id})
	return httpResult(w, d, nil)
}

// clientLayer calls the typed client against a server on loopback TCP.
type clientLayer struct {
	c     *client.Client
	plane int
}

func (l *clientLayer) connect(c wdm.Connection) result {
	s := wdm.FormatConnection(c)
	t := time.Now()
	cr, err := l.c.Connect(context.Background(), s, l.plane)
	d := time.Since(t)
	return result{id: cr.Session, blocked: client.IsBlocked(err), d: d, err: err}
}

func (l *clientLayer) branch(id uint64, dests []wdm.PortWave) result {
	s := slotStrings(dests)
	t := time.Now()
	_, err := l.c.Branch(context.Background(), id, s...)
	d := time.Since(t)
	return result{blocked: client.IsBlocked(err), d: d, err: err}
}

func (l *clientLayer) read(id uint64) result {
	t := time.Now()
	info, err := l.c.Session(context.Background(), id)
	return result{conn: info.Conn, d: time.Since(t), err: err}
}

func (l *clientLayer) disconnect(id uint64) result {
	t := time.Now()
	_, err := l.c.Disconnect(context.Background(), id)
	return result{d: time.Since(t), err: err}
}

func slotStrings(dests []wdm.PortWave) []string {
	out := make([]string, len(dests))
	for i, d := range dests {
		out[i] = wdm.FormatSlot(d)
	}
	return out
}

// quietLogger formats every record like wdmserve's default text logger
// but discards the bytes, so logging costs what it costs in production
// without flooding the benchmark's output.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// serveConfig is the controller configuration wdmserve builds from its
// default flags (4 replicas, 16 shards, tracing and forensics on,
// profiling rates set, 1s metrics history with the default alert
// rules, lite fabrics), for the given fabric and data directory.
func serveConfig(name string, p multistage.Params, dataDir string) switchd.Config {
	p.Lite = true
	return switchd.Config{
		Fabric:   p,
		Backend:  name,
		Replicas: 4,
		Shards:   16,
		Prof: prof.Config{
			MutexFraction: 100,
			BlockRateNs:   100000,
			Interval:      30 * time.Second,
		},
		Logger:          quietLogger(),
		DataDir:         dataDir,
		HistoryInterval: time.Second,
	}
}

// withoutObs turns off the observability the controller can disable:
// request tracing, blocking forensics, and the metrics history.
func withoutObs(cfg switchd.Config) switchd.Config {
	cfg.Spans = span.Config{Capacity: -1}
	cfg.BlockLog = -1
	cfg.HistoryInterval = 0
	return cfg
}

// stack is one running serving stack: a controller, optionally behind
// a loopback HTTP server, a write-ahead log, and a semi-sync standby.
type stack struct {
	ctl        *switchd.Controller
	hs         *http.Server
	url        string
	served     chan struct{}
	repl       *cluster.Server
	replRet    chan struct{}
	standby    *cluster.Standby
	standbyDir string
	dirs       []string
	clients    []*http.Transport
}

// stackSpec says how far up the ladder a stack goes.
type stackSpec struct {
	backend string
	params  multistage.Params
	obsOff  bool
	serve   bool   // loopback HTTP server
	dataDir string // "" = in memory
	standby string // standby data directory, "" = none
}

// startStack builds the controller and whatever the spec puts around it,
// and returns once the standby (if any) is connected.
func startStack(sp stackSpec) (*stack, error) {
	st := &stack{}
	cfg := serveConfig(sp.backend, sp.params, sp.dataDir)
	if sp.obsOff {
		cfg = withoutObs(cfg)
	}
	for _, d := range []string{sp.dataDir, sp.standby} {
		if d != "" {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
			st.dirs = append(st.dirs, d)
		}
	}
	if sp.standby != "" {
		st.repl = cluster.NewServer(cluster.ServerConfig{Shard: 0, Logger: quietLogger()})
		cfg.WALCommitter = st.repl.Commit
	}
	ctl, err := switchd.New(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	st.ctl = ctl
	if sp.standby != "" {
		if err := st.startStandby(cfg, sp.standby); err != nil {
			st.close()
			return nil, err
		}
	}
	if sp.serve {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/", ctl.Handler())
		st.hs = &http.Server{Handler: obs.WithRequestLog(mux, quietLogger())}
		st.url = "http://" + ln.Addr().String()
		st.served = make(chan struct{})
		go func() {
			defer close(st.served)
			_ = st.hs.Serve(ln) // returns ErrServerClosed on shutdown
		}()
	}
	return st, nil
}

func (st *stack) startStandby(cfg switchd.Config, dir string) error {
	if err := st.repl.Attach(st.ctl); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.replRet = make(chan struct{})
	go func() {
		defer close(st.replRet)
		_ = st.repl.Serve(ln) // returns when the server closes
	}()
	serving := cfg
	serving.DataDir = ""
	serving.WALCommitter = nil
	sb, err := cluster.NewStandby(cluster.StandbyConfig{
		Shard:   0,
		Primary: ln.Addr().String(),
		DataDir: dir,
		Serving: serving,
		Logger:  quietLogger(),
	})
	if err != nil {
		return err
	}
	st.standby, st.standbyDir = sb, dir
	sb.Start()
	deadline := time.Now().Add(10 * time.Second)
	for st.repl.Standbys() == 0 {
		if time.Now().After(deadline) {
			return errors.New("standby did not connect within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// layer returns a handle at the top of the stack for one connection
// pinned to plane: the client over TCP when the stack serves, the
// controller itself otherwise.
func (st *stack) layer(plane int) layer {
	if st.hs == nil {
		return &switchdLayer{ctl: st.ctl, plane: plane}
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	st.clients = append(st.clients, tr)
	return &clientLayer{c: client.New(st.url, client.WithHTTPClient(&http.Client{Transport: tr})), plane: plane}
}

// retries sums the retry counters of every client handed out.
func retries(ls []layer) int64 {
	var n int64
	for _, l := range ls {
		if cl, ok := l.(*clientLayer); ok {
			n += cl.c.Retries()
		}
	}
	return n
}

// close stops everything the stack started, waits for its goroutines,
// and removes its data directories.
func (st *stack) close() error {
	var errs []error
	for _, tr := range st.clients {
		tr.CloseIdleConnections()
	}
	if st.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, st.hs.Shutdown(ctx))
		cancel()
		<-st.served
	}
	if st.repl != nil {
		errs = append(errs, st.repl.Close())
		if st.replRet != nil {
			<-st.replRet
		}
	}
	if st.standby != nil {
		errs = append(errs, st.standby.Close())
	}
	if st.ctl != nil {
		errs = append(errs, st.ctl.Close())
	}
	for _, d := range st.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	return errors.Join(errs...)
}
