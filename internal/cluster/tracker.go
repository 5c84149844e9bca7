package cluster

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// PeerStatus is one federation peer's last known reachability.
type PeerStatus struct {
	Shard string
	URL   string // the URL the verdict came from
	Up    bool
	Error string
	// LastProbe is when the verdict was produced (zero before the
	// first probe).
	LastProbe time.Time
}

// PeerTracker maintains federation peer reachability: a background
// prober hits every peer's /v1/health on an interval, and the
// federation handlers opportunistically feed their fan-out outcomes in,
// so a peer a federated request could not reach is marked down without
// waiting for the next probe tick. A peer is up when some URL answered
// over a working transport, whatever the answer. Snapshot feeds the
// federation row of GET /v1/health and the wdm_federation_peer_up
// gauges.
type PeerTracker struct {
	peers   func() []FederationPeer
	client  *http.Client
	timeout time.Duration

	mu     sync.Mutex
	status map[string]PeerStatus
}

// NewPeerTracker builds a tracker over cfg's peer list, client, and
// timeout (same defaults as the federation handlers).
func NewPeerTracker(cfg FederationConfig) *PeerTracker {
	cfg = cfg.withDefaults()
	return &PeerTracker{
		peers:   cfg.Peers,
		client:  cfg.Client,
		timeout: cfg.Timeout,
		status:  make(map[string]PeerStatus),
	}
}

// observe records one peer verdict (prober or federation scrape).
func (t *PeerTracker) observe(shard, url string, up bool, err error) {
	st := PeerStatus{Shard: shard, URL: url, Up: up, LastProbe: time.Now()}
	if err != nil {
		st.Error = err.Error()
	}
	t.mu.Lock()
	t.status[shard] = st
	t.mu.Unlock()
}

// ProbeOnce probes every peer concurrently: the first URL that answers
// /v1/health over a working transport marks the peer up — any HTTP
// status counts (a degraded or even critical shard is still a
// reachable federation source; unreachable is what breaks the fleet
// view).
func (t *PeerTracker) ProbeOnce(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, t.timeout)
	defer cancel()
	fanOut(ctx, t.peers(), t, func(ctx context.Context, base string) (struct{}, bool, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/health", nil)
		if err != nil {
			return struct{}{}, false, err
		}
		resp, err := t.client.Do(req)
		if err != nil {
			return struct{}{}, false, err
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return struct{}{}, true, nil
	})
}

// Run probes on an interval until ctx is done. An immediate first
// probe seeds the status map so /v1/health has a verdict right away.
func (t *PeerTracker) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t.ProbeOnce(ctx)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			t.ProbeOnce(ctx)
		}
	}
}

// Snapshot returns every known peer's status, sorted by shard.
func (t *PeerTracker) Snapshot() []PeerStatus {
	t.mu.Lock()
	out := make([]PeerStatus, 0, len(t.status))
	for _, st := range t.status {
		out = append(out, st)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}
