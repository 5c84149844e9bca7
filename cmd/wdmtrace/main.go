// wdmtrace records and replays connection-event traces against any
// registered fabric backend, making blocking incidents reproducible
// and comparable across configurations:
//
//	wdmtrace -record -n 16 -k 2 -r 4 -m 3 -requests 500 > incident.trace
//	wdmtrace -replay incident.trace -n 16 -k 2 -r 4 -m 13
//	wdmtrace -replay incident.trace -fabric mesh -n 12 -k 4 -r 3
//
// Recording runs the traffic engine in process against the given network
// (-requests Poisson arrivals at 10 Erlangs, fanout up to N/2) and emits
// the full interface history (adds with outcomes, releases).
// Replaying drives the same requests against a possibly different
// configuration and reports every outcome divergence — e.g. which
// recorded blocks disappear at a larger middle-stage count, or how the
// mesh fares against a load captured on a Clos fabric.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

func main() {
	record := flag.Bool("record", false, "record a workload trace to stdout")
	replay := flag.String("replay", "", "replay the given trace file")
	n := flag.Int("n", 16, "network size N")
	k := flag.Int("k", 2, "wavelengths per fiber")
	r := flag.Int("r", 4, "outer-stage module count")
	m := flag.Int("m", 0, "middle modules (0 = sufficient bound)")
	x := flag.Int("x", 0, "split limit (0 = backend default)")
	modelName := flag.String("model", "msw", "multicast model")
	fabricName := flag.String("fabric", "msw", "fabric backend: "+strings.Join(backend.Names(), ", "))
	requests := flag.Int("requests", 500, "arrivals to record")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	model, err := wdm.ParseModel(*modelName)
	if err != nil {
		fatal(err)
	}
	desc, err := backend.Get(*fabricName)
	if err != nil {
		fatal(err)
	}
	norm, err := desc.Normalize(multistage.Params{
		N: *n, K: *k, R: *r, M: *m, X: *x,
		Model: model, Lite: true,
	})
	if err != nil {
		fatal(err)
	}
	net, err := desc.New(norm)
	if err != nil {
		fatal(err)
	}

	switch {
	case *record:
		doRecord(net, norm, *requests, *seed)
	case *replay != "":
		doReplay(net, *replay)
	default:
		fmt.Fprintln(os.Stderr, "wdmtrace: need -record or -replay <file>")
		os.Exit(2)
	}
}

func doRecord(net backend.Backend, norm multistage.Params, requests int, seed int64) {
	rec := trace.NewRecorder(net, multistage.IsBlocked)
	eng, err := traffic.NewEngine(traffic.Config{
		Sink: traffic.NewNetworkSink(rec, norm),
		Seed: seed, Arrivals: requests, Erlangs: 10, MaxFanout: norm.N / 2,
	})
	if err != nil {
		fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		fatal(err)
	}
	if err := rec.Trace().Write(os.Stdout); err != nil {
		fatal(err)
	}
	ok, blocked := net.Stats()
	fmt.Fprintf(os.Stderr, "recorded %d events (%d routed, %d blocked)\n",
		len(rec.Trace().Events), ok, blocked)
}

func doReplay(net backend.Backend, path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	res, err := tr.Replay(net, multistage.IsBlocked)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %d events: %d adds matched, %d divergences\n",
		res.Applied, res.OKMatches, len(res.Divergence))
	for _, i := range res.Divergence {
		ev := tr.Events[i]
		fmt.Printf("  event %d: %s — recorded %s, replay differs\n",
			i, wdm.FormatConnection(ev.Conn), outcomeName(ev.Outcome))
	}
}

func outcomeName(o trace.Outcome) string {
	switch o {
	case trace.OK:
		return "routed"
	case trace.Blocked:
		return "blocked"
	default:
		return "rejected"
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wdmtrace:", err)
	os.Exit(1)
}
