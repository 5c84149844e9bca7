package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// Two synthetic shard expositions: summable counters, histograms with
// exemplars and *different* bucket bounds (exercising the union merge),
// a gauge whose label-less samples conflict across shards, and each
// shard's own view of its peers, already labelled by shard.
const shardAText = `# HELP wdm_connect_total Total successful connects.
# TYPE wdm_connect_total counter
wdm_connect_total 10
# HELP wdm_active_sessions Live sessions.
# TYPE wdm_active_sessions gauge
wdm_active_sessions 3
# HELP wdm_federation_peer_up Peer reachability as this shard's prober sees it.
# TYPE wdm_federation_peer_up gauge
wdm_federation_peer_up{shard="a"} 1
wdm_federation_peer_up{shard="b"} 0
# HELP wdm_op_latency_seconds Op latency.
# TYPE wdm_op_latency_seconds histogram
wdm_op_latency_seconds_bucket{op="connect",le="0.001"} 4 # {trace_id="0123456789abcdef0123456789abcdef"} 0.0004
wdm_op_latency_seconds_bucket{op="connect",le="0.005"} 9
wdm_op_latency_seconds_bucket{op="connect",le="+Inf"} 10
wdm_op_latency_seconds_sum{op="connect"} 0.02
wdm_op_latency_seconds_count{op="connect"} 10
`

const shardBText = `# HELP wdm_connect_total Total successful connects.
# TYPE wdm_connect_total counter
wdm_connect_total 7
# HELP wdm_active_sessions Live sessions.
# TYPE wdm_active_sessions gauge
wdm_active_sessions 5
# HELP wdm_federation_peer_up Peer reachability as this shard's prober sees it.
# TYPE wdm_federation_peer_up gauge
wdm_federation_peer_up{shard="a"} 1
wdm_federation_peer_up{shard="b"} 1
# HELP wdm_op_latency_seconds Op latency.
# TYPE wdm_op_latency_seconds histogram
wdm_op_latency_seconds_bucket{op="connect",le="0.002"} 3 # {trace_id="fedcba9876543210fedcba9876543210"} 0.0011
wdm_op_latency_seconds_bucket{op="connect",le="0.005"} 5
wdm_op_latency_seconds_bucket{op="connect",le="+Inf"} 7
wdm_op_latency_seconds_sum{op="connect"} 0.015
wdm_op_latency_seconds_count{op="connect"} 7
`

// bucketCum reads the merged histogram's cumulative count at an exact
// finite bound, scanning by parsed le value so the formatting of the
// label does not matter.
func bucketCum(t *testing.T, m Metrics, family string, le float64) float64 {
	t.Helper()
	fam := m[family]
	if fam == nil {
		t.Fatalf("family %s absent", family)
	}
	for _, s := range fam.Samples {
		if s.Name != family+"_bucket" {
			continue
		}
		v, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		if v == le {
			return s.Value
		}
	}
	t.Fatalf("%s has no bucket le=%v", family, le)
	return 0
}

func TestMergeFleetSumsAndLabels(t *testing.T) {
	var pw PromWriter
	bad := MergeFleet(&pw, map[string][]byte{
		"a": []byte(shardAText),
		"b": []byte(shardBText),
	})
	if len(bad) != 0 {
		t.Fatalf("MergeFleet reported bad shards %v for well-formed input", bad)
	}
	merged := string(pw.Bytes())

	// The merged exposition must survive the same strict parser that
	// accepted the inputs.
	m, err := ParseProm(strings.NewReader(merged))
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v\n%s", err, merged)
	}

	// Counters sum with no shard label.
	if v, ok := m.Value("wdm_connect_total", nil); !ok || v != 17 {
		t.Errorf("wdm_connect_total = %v, %v; want 17", v, ok)
	}
	if fam := m["wdm_connect_total"]; fam != nil {
		for _, s := range fam.Samples {
			if s.Labels["shard"] != "" {
				t.Errorf("summed counter carries a shard label: %v", s.Labels)
			}
		}
	}

	// Gauges keep per-shard samples, disambiguated by the shard label.
	if v, ok := m.Value("wdm_active_sessions", map[string]string{"shard": "a"}); !ok || v != 3 {
		t.Errorf("wdm_active_sessions{shard=a} = %v, %v; want 3", v, ok)
	}
	if v, ok := m.Value("wdm_active_sessions", map[string]string{"shard": "b"}); !ok || v != 5 {
		t.Errorf("wdm_active_sessions{shard=b} = %v, %v; want 5", v, ok)
	}

	// A sample already labelled by shard is one shard's view of a peer:
	// dropped, so the federation layer's verdict is the only copy.
	if fam := m["wdm_federation_peer_up"]; fam != nil {
		t.Errorf("shard-labelled gauge samples survived the merge: %+v", fam.Samples)
	}

	// Histograms sum bucket-wise over the union of bounds, with each
	// shard's cumulative counts carried forward across bounds it lacks:
	//   le=0.001: a=4, b=0   -> 4
	//   le=0.002: a=4, b=3   -> 7
	//   le=0.005: a=9, b=5   -> 14
	//   +Inf:     a=10, b=7  -> 17
	for _, tc := range []struct{ le, want float64 }{
		{0.001, 4}, {0.002, 7}, {0.005, 14},
	} {
		if got := bucketCum(t, m, "wdm_op_latency_seconds", tc.le); got != tc.want {
			t.Errorf("merged bucket le=%v = %v, want %v", tc.le, got, tc.want)
		}
	}
	if v, ok := m.Value("wdm_op_latency_seconds_count", map[string]string{"op": "connect"}); !ok || v != 17 {
		t.Errorf("merged histogram count = %v, %v; want 17", v, ok)
	}
	if v, ok := m.Value("wdm_op_latency_seconds_sum", map[string]string{"op": "connect"}); !ok || math.Abs(v-0.035) > 1e-12 {
		t.Errorf("merged histogram sum = %v, %v; want 0.035", v, ok)
	}
	// Exemplars do not survive the merge: per-shard trace ids are
	// meaningless on a fleet-wide series.
	if strings.Contains(merged, "trace_id") {
		t.Errorf("merged exposition leaked exemplars:\n%s", merged)
	}
}

func TestMergeFleetSkipsMalformedPeer(t *testing.T) {
	var pw PromWriter
	bad := MergeFleet(&pw, map[string][]byte{
		"a": []byte(shardAText),
		"z": []byte("this is not a prometheus exposition\n"),
	})
	if bad["z"] == nil {
		t.Fatal("malformed shard z was not reported")
	}
	if bad["a"] != nil {
		t.Fatalf("healthy shard a reported bad: %v", bad["a"])
	}
	m, err := ParseProm(strings.NewReader(string(pw.Bytes())))
	if err != nil {
		t.Fatalf("partial merge does not parse: %v", err)
	}
	// The fleet view degrades to the healthy shards' data.
	if v, ok := m.Value("wdm_connect_total", nil); !ok || v != 10 {
		t.Errorf("partial wdm_connect_total = %v, %v; want 10", v, ok)
	}
}

func TestMergeFleetEmpty(t *testing.T) {
	var pw PromWriter
	if bad := MergeFleet(&pw, nil); len(bad) != 0 {
		t.Fatalf("empty merge reported bad shards %v", bad)
	}
	if _, err := ParseProm(strings.NewReader(string(pw.Bytes()))); err != nil {
		t.Fatalf("empty merge output does not parse: %v", err)
	}
}
