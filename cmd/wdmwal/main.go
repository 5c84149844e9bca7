// wdmwal inspects, verifies, and replays wdmserve's durable state
// directories offline — the forensic counterpart of the serving-path
// write-ahead log (internal/durable):
//
//	wdmwal inspect /var/lib/wdmserve           # meta, segments, snapshots, state
//	wdmwal inspect -records /var/lib/wdmserve  # plus every record as a JSON line
//	wdmwal verify  /var/lib/wdmserve           # read-only integrity check
//	wdmwal replay  /var/lib/wdmserve           # reinstall every session into fresh fabrics
//
// Every command reads the directory once, through the same scan a
// recovering server runs (internal/durable), so inspect's report, its
// state digest and verify's verdict always agree with one another and
// with recovery. verify walks every segment frame by frame and reports
// the first integrity failure (torn frame, CRC mismatch, sequence gap)
// at the exact byte offset recovery would truncate at; exit status 1
// marks a dirty log. replay materializes the log's final state and
// reinstalls each session's recorded route into freshly built replicas
// of the fabric the log records — its own backend and parameters — so
// no router search runs, and a replay that fails indicates a corrupted
// or hand-edited log, never blocking.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/durable"
	"repro/internal/fabric/backend"
	"repro/internal/multistage"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "inspect":
		runInspect(rest)
	case "verify":
		runVerify(rest)
	case "replay":
		runReplay(rest)
	default:
		fmt.Fprintf(os.Stderr, "wdmwal: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  wdmwal inspect [-json] [-records] [-state] <data-dir>
  wdmwal verify  [-json] <data-dir>
  wdmwal replay  [-json] <data-dir>
`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wdmwal:", err)
	os.Exit(1)
}

func dirArg(fs *flag.FlagSet, args []string) string {
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	return fs.Arg(0)
}

// inspectOut is `wdmwal inspect -json`'s shape.
type inspectOut struct {
	Report   *durable.VerifyReport `json:"report"`
	Meta     *durable.Meta         `json:"meta,omitempty"`
	Ops      map[string]int        `json:"ops"`
	Sessions int                   `json:"sessions"`
	Failed   map[int][]int         `json:"failed_middles,omitempty"`
	NextID   uint64                `json:"next_session"`
	Sealed   bool                  `json:"sealed"`
	// StateDigest is a sha256 over the canonical final state (sessions
	// sorted by id with full routes, failed middles sorted per fabric).
	// Two directories that applied the same records digest identically
	// regardless of segment boundaries, snapshots, or group-commit
	// batching, so a failover drill asserts replica equivalence by
	// comparing this one field across primary and standby data dirs.
	StateDigest string `json:"state_digest"`
	// State is the canonical payload behind StateDigest, for diffing
	// when the digests disagree.
	State *canonicalState `json:"state,omitempty"`
}

// canonicalState is the digested projection of a log's final state.
type canonicalState struct {
	Sessions []durable.SessionRoute `json:"sessions"`
	Failed   map[int][]int          `json:"failed_middles,omitempty"`
}

func digestState(state *durable.State) (string, *canonicalState) {
	c := &canonicalState{Sessions: state.SessionList(), Failed: state.FailedList()}
	enc, err := json.Marshal(c)
	if err != nil {
		fatal(err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), c
}

func runInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the summary as JSON")
	records := fs.Bool("records", false, "also dump every valid record as a JSON line")
	withState := fs.Bool("state", false, "include the canonical state payload behind state_digest (JSON mode)")
	dir := dirArg(fs, args)

	ops := make(map[string]int)
	state, meta, rep, err := durable.ReadState(dir, func(r *durable.Record) {
		ops[r.Op]++
		if *records {
			line, _ := json.Marshal(r)
			fmt.Println(string(line))
		}
	})
	if err != nil {
		fatal(err)
	}
	out := inspectOut{
		Report: rep, Meta: meta, Ops: ops,
		Sessions: len(state.Sessions), Failed: state.FailedList(),
		NextID: state.NextSession, Sealed: state.Sealed,
	}
	var canon *canonicalState
	out.StateDigest, canon = digestState(state)
	if *withState {
		out.State = canon
	}
	if *jsonOut {
		enc, _ := json.MarshalIndent(out, "", "  ")
		fmt.Println(string(enc))
		return
	}
	if *records {
		fmt.Println()
	}
	if meta != nil {
		p := meta.Params
		fmt.Printf("fabric: model=%s backend=%s n=%d k=%d r=%d m=%d x=%d replicas=%d\n",
			p.Model, meta.BackendName(), p.N, p.K, p.R, p.M, p.X, meta.Replicas)
	}
	fmt.Printf("records: %d (last seq %d)\n", rep.Records, rep.LastSeq)
	opNames := make([]string, 0, len(ops))
	for op := range ops {
		opNames = append(opNames, op)
	}
	sort.Strings(opNames)
	for _, op := range opNames {
		fmt.Printf("  %-12s %d\n", op, ops[op])
	}
	fmt.Printf("state: %d live sessions, next id %d, sealed=%v\n",
		len(state.Sessions), state.NextSession, state.Sealed)
	fmt.Printf("state digest: %s\n", out.StateDigest)
	for plane, mids := range out.Failed {
		fmt.Printf("  fabric %d failed middles: %v\n", plane, mids)
	}
	if rep.Truncated != nil {
		t := rep.Truncated
		fmt.Printf("CORRUPT TAIL: %s at byte %d: %s\n", t.Segment, t.Offset, t.Reason)
	}
}

func runVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	dir := dirArg(fs, args)

	rep, err := durable.Verify(dir)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(enc))
	} else {
		for _, s := range rep.Segments {
			fmt.Printf("segment %s: first seq %d, %d records, %d bytes\n",
				s.Name, s.FirstSeq, s.Records, s.Bytes)
		}
		for _, s := range rep.Snapshots {
			status := "valid"
			if !s.Valid {
				status = "INVALID: " + s.Error
			}
			fmt.Printf("snapshot %s: covers seq %d, %d sessions, %s\n",
				s.Name, s.LastSeq, s.Sessions, status)
		}
		fmt.Printf("%d records, last seq %d, %d live sessions, sealed=%v\n",
			rep.Records, rep.LastSeq, rep.Sessions, rep.Sealed)
		if rep.Clean {
			fmt.Println("clean: every frame CRC-valid, sequence contiguous")
		} else {
			t := rep.Truncated
			fmt.Printf("CORRUPT: %s at byte %d: %s (recovery truncates here)\n",
				t.Segment, t.Offset, t.Reason)
		}
	}
	if !rep.Clean {
		os.Exit(1)
	}
}

// replayOut is `wdmwal replay -json`'s shape.
type replayOut struct {
	Sessions int            `json:"sessions"`
	Fabrics  []replayFabric `json:"fabrics"`
	Sealed   bool           `json:"sealed"`
}

type replayFabric struct {
	Replica     int                    `json:"replica"`
	Sessions    int                    `json:"sessions"`
	Failed      []int                  `json:"failed_middles,omitempty"`
	Utilization multistage.Utilization `json:"utilization"`
}

func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	dir := dirArg(fs, args)

	state, meta, rep, err := durable.ReadState(dir, nil)
	if err != nil {
		fatal(err)
	}
	if meta == nil {
		fatal(fmt.Errorf("%s carries no fabric metadata (empty or foreign directory)", dir))
	}
	if rep.Truncated != nil {
		t := rep.Truncated
		fmt.Fprintf(os.Stderr, "wdmwal: corrupt tail truncated in memory: %s at byte %d: %s\n",
			t.Segment, t.Offset, t.Reason)
	}
	out, err := replay(state, meta)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc, _ := json.MarshalIndent(out, "", "  ")
		fmt.Println(string(enc))
		return
	}
	fmt.Printf("replayed %d sessions into %d fabric replica(s), zero routing searches\n",
		out.Sessions, len(out.Fabrics))
	for _, f := range out.Fabrics {
		u := f.Utilization
		fmt.Printf("  fabric %d: %d sessions, in-links %d/%d busy, out-links %d/%d busy",
			f.Replica, f.Sessions, u.InBusy, u.InTotal, u.OutBusy, u.OutTotal)
		if len(f.Failed) > 0 {
			fmt.Printf(", failed middles %v", f.Failed)
		}
		fmt.Println()
	}
	if state.Sealed {
		fmt.Println("log is sealed (clean drain)")
	}
}

// replay reinstalls a log's final state into freshly built replicas of
// the fabric the log records — its own backend and parameters — with no
// router search.
func replay(state *durable.State, meta *durable.Meta) (*replayOut, error) {
	desc, err := backend.Get(meta.BackendName())
	if err != nil {
		return nil, err
	}
	nets := make([]backend.Backend, meta.Replicas)
	for i := range nets {
		net, err := desc.New(meta.Params)
		if err != nil {
			return nil, fmt.Errorf("building fabric replica %d: %w", i, err)
		}
		nets[i] = net
	}
	for plane, mids := range state.FailedList() {
		if plane < 0 || plane >= len(nets) {
			return nil, fmt.Errorf("failed-middle record names fabric %d of %d", plane, len(nets))
		}
		for _, mid := range mids {
			if err := nets[plane].FailMiddle(mid); err != nil {
				return nil, fmt.Errorf("fabric %d: marking middle %d failed: %w", plane, mid, err)
			}
		}
	}
	perFabric := make([]int, len(nets))
	for _, sr := range state.SessionList() {
		if sr.Fabric < 0 || sr.Fabric >= len(nets) {
			return nil, fmt.Errorf("session %d names fabric %d of %d", sr.Session, sr.Fabric, len(nets))
		}
		if _, err := nets[sr.Fabric].Reinstall(sr.Route); err != nil {
			return nil, fmt.Errorf("session %d failed to reinstall on fabric %d: %w", sr.Session, sr.Fabric, err)
		}
		perFabric[sr.Fabric]++
	}
	out := &replayOut{Sessions: len(state.Sessions), Sealed: state.Sealed}
	for i, net := range nets {
		out.Fabrics = append(out.Fabrics, replayFabric{
			Replica:     i,
			Sessions:    perFabric[i],
			Failed:      net.FailedMiddles(),
			Utilization: net.Utilization(),
		})
	}
	return out, nil
}
