package traffic

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/multistage"
	"repro/internal/obs/span"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/trace"
	"repro/internal/wdm"
)

// OK is the outcome code of a request the target carried out.
const OK = "ok"

// Sink is the target the engine's request loop drives: a live switchd
// over /v1 (NewClientSink) or a routing network in process
// (NewNetworkSink). Every call answers with an outcome code, OK or a
// stable api error code (the blocked class, admission_full,
// not_found, ...); an error means the run cannot go on.
type Sink interface {
	// Shape reports the target's geometry, model and replica count.
	Shape(ctx context.Context) (api.Status, error)
	// Connect offers one admissible connection to a fabric replica.
	Connect(ctx context.Context, fabric int, c wdm.Connection) (Reply, error)
	// Branch grows a live session by one leaf.
	Branch(ctx context.Context, session uint64, leaf wdm.PortWave) (code string, err error)
	// Disconnect tears a session down.
	Disconnect(ctx context.Context, session uint64) (code string, err error)
}

// Reply is a sink's answer to one connect.
type Reply struct {
	Session uint64 // the routed session, when Code is OK
	Code    string
	// Repacked: the target rearranged live sessions to admit this one.
	Repacked bool
	// TraceID is the W3C trace id the request carried (empty in
	// process).
	TraceID string
}

// NewClientSink returns the sink that drives a live target through its
// typed /v1 client. Every connect carries a fresh sampled traceparent,
// so its trace id joins the target's spans, exemplars and blocking
// forensics.
func NewClientSink(cl *client.Client) Sink { return clientSink{cl} }

type clientSink struct{ cl *client.Client }

func (s clientSink) Shape(ctx context.Context) (api.Status, error) { return s.cl.Status(ctx) }

func (s clientSink) Connect(ctx context.Context, fabric int, c wdm.Connection) (Reply, error) {
	tid := span.NewTraceID()
	r := Reply{TraceID: tid.String()}
	ctx = client.ContextWithTraceparent(ctx, span.FormatTraceparent(tid, span.NewSpanID(), span.FlagSampled))
	cr, err := s.cl.Connect(ctx, wdm.FormatConnection(c), fabric)
	r.Session = cr.Session
	r.Code, err = codeOf(err)
	return r, err
}

func (s clientSink) Branch(ctx context.Context, session uint64, leaf wdm.PortWave) (string, error) {
	_, err := s.cl.Branch(ctx, session, wdm.FormatSlot(leaf))
	return codeOf(err)
}

func (s clientSink) Disconnect(ctx context.Context, session uint64) (string, error) {
	_, err := s.cl.Disconnect(ctx, session)
	return codeOf(err)
}

// Prom reads the target's /metrics exposition, so Sweep can take each
// point's phase means from the target's own registry.
func (s clientSink) Prom(ctx context.Context) (string, error) { return s.cl.Prom(ctx) }

// codeOf splits a client error into an outcome code and a transport
// failure (an error without a stable code).
func codeOf(err error) (string, error) {
	if err == nil {
		return OK, nil
	}
	if code := api.CodeOf(err); code != "" {
		return code, nil
	}
	return "", err
}

// NetworkSink is the in-process sink: requests go straight to a
// routing network (a backend.Backend, *multistage.Network,
// *crossbar.Switch, or a trace.Recorder around one), so a run is pure
// virtual time with no server in the loop. Blocking errors
// (multistage.IsBlocked) answer with the blocked class's codes. Any
// other error ends the run: the engine only offers admissible
// requests, so a refusal that is not a block is a bug. Calls are
// serialized, so several workers may share one network.
type NetworkSink struct {
	mu     sync.Mutex
	net    trace.Network
	add    func(wdm.Connection) (id int, repacked bool, err error)
	status api.Status
}

// NewNetworkSink wraps net; p describes it (N, K, R, M and the model).
func NewNetworkSink(net trace.Network, p multistage.Params) *NetworkSink {
	return &NetworkSink{
		net: net,
		add: func(c wdm.Connection) (int, bool, error) {
			id, err := net.Add(c)
			return id, false, err
		},
		status: api.Status{Model: p.Model.String(), N: p.N, K: p.K, R: p.R, M: p.M, X: p.X, Replicas: 1},
	}
}

// NewRepackSink drives net in rearrangeable operation: a connect that
// would block first re-routes every live session (AddWithRepack), and
// the replies report the connects that rearrangement saved.
func NewRepackSink(net *multistage.Network) *NetworkSink {
	s := NewNetworkSink(net, net.Params())
	s.add = net.AddWithRepack
	return s
}

// Shape reports the network's description.
func (s *NetworkSink) Shape(context.Context) (api.Status, error) { return s.status, nil }

// Connect routes c; the fabric index is ignored (one network).
func (s *NetworkSink) Connect(_ context.Context, _ int, c wdm.Connection) (Reply, error) {
	s.mu.Lock()
	id, repacked, err := s.add(c)
	s.mu.Unlock()
	if err == nil {
		return Reply{Session: uint64(id), Code: OK, Repacked: repacked}, nil
	}
	code, err := blockedCode(err)
	if err != nil {
		return Reply{}, fmt.Errorf("traffic: network rejected admissible request %s: %w", wdm.FormatConnection(c), err)
	}
	return Reply{Code: code}, nil
}

// Branch adds one leaf through the network's AddBranch.
func (s *NetworkSink) Branch(_ context.Context, session uint64, leaf wdm.PortWave) (string, error) {
	b, ok := s.net.(interface {
		AddBranch(id int, dests ...wdm.PortWave) error
	})
	if !ok {
		return "", fmt.Errorf("traffic: %T cannot grow sessions", s.net)
	}
	s.mu.Lock()
	err := b.AddBranch(int(session), leaf)
	s.mu.Unlock()
	if err == nil {
		return OK, nil
	}
	code, err := blockedCode(err)
	if err != nil {
		return "", fmt.Errorf("traffic: branch session %d += %s: %w", session, wdm.FormatSlot(leaf), err)
	}
	return code, nil
}

// Disconnect releases the session; a failed release ends the run.
func (s *NetworkSink) Disconnect(_ context.Context, session uint64) (string, error) {
	s.mu.Lock()
	err := s.net.Release(int(session))
	s.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("traffic: release %d: %w", session, err)
	}
	return OK, nil
}

// blockedCode maps a blocking error to its stable code, as the serving
// path does; other errors come back unchanged.
func blockedCode(err error) (string, error) {
	if !multistage.IsBlocked(err) {
		return "", err
	}
	if code := multistage.BlockedCode(err); code != "" {
		return code, nil
	}
	return api.CodeBlocked, nil
}
