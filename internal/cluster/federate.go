package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Cluster-wide metrics federation: GET /v1/cluster/metrics scrapes
// every shard's /metrics and serves the merged fleet exposition (see
// obs.MergeProm for the merge semantics — counters and histograms sum,
// gauges get a shard label). A shard that is down or serves a
// malformed exposition is skipped and reported through the
// wdm_federation_peer_up gauge: the fleet view degrades to partial
// instead of failing, because it is needed most during exactly the
// incidents that take shards out.

// FederationPeer is one shard's scrape target: URLs are tried in order
// (primary first, then standby), the first reachable exposition wins.
type FederationPeer struct {
	Shard string
	URLs  []string
}

// FederationConfig configures the federation handler.
type FederationConfig struct {
	// Peers lists the scrape targets per request, so a topology that
	// changes (promotion, reconfiguration) is picked up live.
	Peers func() []FederationPeer
	// Timeout bounds the whole scrape fan-out (default 2s).
	Timeout time.Duration
	// Client issues the scrapes (default http.DefaultClient).
	Client *http.Client
	// Tracker, when set, receives every scrape outcome so federated
	// requests keep the peer-health view fresh between probe ticks.
	Tracker *PeerTracker
}

// NewFederationHandler returns the /v1/cluster/metrics handler.
func NewFederationHandler(cfg FederationConfig) http.Handler {
	cfg = cfg.withDefaults()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), cfg.Timeout)
		defer cancel()
		results := fanOut(ctx, cfg.Peers(), cfg.Tracker, func(ctx context.Context, base string) ([]byte, bool, error) {
			return scrape(ctx, cfg.Client, base)
		})

		raw := make(map[string][]byte, len(results))
		for _, res := range results {
			if res.err == nil {
				raw[res.shard] = res.val
			}
		}
		var pw obs.PromWriter
		bad := obs.MergeFleet(&pw, raw)
		for _, res := range results {
			up := res.err == nil && bad[res.shard] == nil
			pw.Gauge("wdm_federation_peer_up",
				"1 when the shard's exposition was scraped and merged this request; 0 for unreachable or malformed peers.",
				b2f(up), obs.Label{Name: "shard", Value: res.shard})
		}
		w.Header().Set("Content-Type", obs.ContentType)
		_, _ = pw.WriteTo(w)
	})
}

// withDefaults fills a zero Timeout (2s) and a nil Client.
func (cfg FederationConfig) withDefaults() FederationConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	return cfg
}

// peerResult is one peer's fan-out outcome: the value from the first
// URL that succeeded, or the last URL's error.
type peerResult[T any] struct {
	shard string
	val   T
	err   error
}

// fanOut calls fetch for every peer concurrently, trying each peer's
// URLs in order until one succeeds. fetch reports reached when the URL
// answered over a working transport, whatever it answered. The tracker,
// when non-nil, records a peer up when some URL was reached and down
// with the last error when none was.
func fanOut[T any](ctx context.Context, peers []FederationPeer, tracker *PeerTracker,
	fetch func(ctx context.Context, url string) (val T, reached bool, err error)) []peerResult[T] {
	results := make([]peerResult[T], len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[i]
			res.shard, res.err = p.Shard, errors.New("no URLs configured")
			upURL, lastURL := "", ""
			for _, u := range p.URLs {
				val, reached, err := fetch(ctx, u)
				lastURL = u
				if err == nil {
					res.val, res.err, upURL = val, nil, u
					break
				}
				res.err = err
				if reached && upURL == "" {
					upURL = u
				}
			}
			if tracker == nil {
				return
			}
			if upURL != "" {
				tracker.observe(p.Shard, upURL, true, nil)
			} else {
				tracker.observe(p.Shard, lastURL, false, res.err)
			}
		}()
	}
	wg.Wait()
	return results
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// scrape fetches one peer's classic-format exposition; a non-200
// answer is an error from a reached peer.
func scrape(ctx context.Context, c *http.Client, base string) (body []byte, reached bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, true, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	return body, true, err
}
