package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs/tsdb"
)

// Federated range queries: GET /v1/cluster/query fans the request's
// query string out to every shard's /v1/query and serves the merged
// result (see tsdb.Merge — per-shard series gain a shard label, and
// same-name series are summed into a synthetic fleet series). Like
// metrics federation, a down shard degrades the answer to partial
// instead of failing it, and the outcome feeds the peer tracker.

// NewQueryFederationHandler returns the /v1/cluster/query handler.
func NewQueryFederationHandler(cfg FederationConfig) http.Handler {
	cfg = cfg.withDefaults()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), cfg.Timeout)
		defer cancel()
		results := fanOut(ctx, cfg.Peers(), cfg.Tracker, func(ctx context.Context, base string) (*tsdb.QueryResult, bool, error) {
			return queryPeer(ctx, cfg.Client, base, r.URL.RawQuery)
		})

		byShard := make(map[string]*tsdb.QueryResult, len(results))
		down := make([]string, 0)
		for _, res := range results {
			if res.err != nil {
				down = append(down, res.shard)
				continue
			}
			byShard[res.shard] = res.val
		}
		merged := tsdb.Merge(byShard)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			*tsdb.QueryResult
			Shards     int      `json:"shards"`
			DownShards []string `json:"down_shards,omitempty"`
		}{merged, len(byShard), down})
	})
}

// queryPeer runs one shard's /v1/query with the caller's raw query
// string. Non-200 answers (bad expression, history disabled on the
// peer) are errors with reached=true: the peer is up but contributed
// nothing.
func queryPeer(ctx context.Context, c *http.Client, base, rawQuery string) (qr *tsdb.QueryResult, reached bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/query?"+rawQuery, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, true, fmt.Errorf("query %s: HTTP %d: %s", base, resp.StatusCode, firstLine(body))
	}
	qr = new(tsdb.QueryResult)
	if err := json.Unmarshal(body, qr); err != nil {
		return nil, true, fmt.Errorf("query %s: bad response: %w", base, err)
	}
	return qr, true, nil
}

// firstLine truncates an error body for the wrapped error message.
func firstLine(b []byte) string {
	s := string(b)
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
