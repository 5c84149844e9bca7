// Diagnosis: operating an undersized WDM multicast network.
//
// Strictly nonblocking middle-stage counts are expensive; operators run
// leaner networks and manage the consequences. This example walks the
// toolkit for that mode of operation on a deliberately undersized
// three-stage network:
//
//  1. a request blocks — Explain shows exactly which middle modules were
//     unavailable and which destination modules stayed uncovered;
//  2. the whole incident is recorded as a replayable trace;
//  3. rearrangeable operation (AddWithRepack) recovers the request by
//     re-striping existing connections;
//  4. a middle module fails outright — affected connections are
//     enumerated and re-routed around it.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/multistage"
	"repro/internal/trace"
	"repro/internal/wdm"
)

func pw(p, w int) wdm.PortWave {
	return wdm.PortWave{Port: wdm.Port(p), Wave: wdm.Wavelength(w)}
}

func conn(src wdm.PortWave, dests ...wdm.PortWave) wdm.Connection {
	return wdm.Connection{Source: src, Dests: dests}
}

func main() {
	// N=6 ports in r=3 modules of 2, k=1, just m=2 middle modules
	// (Theorem 1 wants 4): lean, and it will show.
	net, err := multistage.New(multistage.Params{
		N: 6, K: 1, R: 3, M: 2, X: 1, Model: wdm.MSW, Lite: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	rec := trace.NewRecorder(net, multistage.IsBlocked)

	// The hand-derived blocked-but-rearrangeable state from the repack
	// tests: three connections that pin both middles' critical links.
	for _, c := range []wdm.Connection{
		conn(pw(1, 0), pw(5, 0)),
		conn(pw(4, 0), pw(0, 0)),
		conn(pw(5, 0), pw(2, 0)),
	} {
		if _, err := rec.Add(c); err != nil {
			log.Fatal(err)
		}
	}

	// 1. The next request blocks; ask the router why.
	request := conn(pw(0, 0), pw(3, 0))
	ex, err := net.Explain(request)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- why is this request blocked? ---")
	fmt.Print(ex)

	// 2. Record the blocking event itself so the incident replays.
	if _, err := rec.Add(request); !multistage.IsBlocked(err) {
		log.Fatalf("expected blocking, got %v", err)
	}
	fmt.Println("\n--- incident trace (replayable with wdmtrace) ---")
	if err := rec.Trace().Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 3. Recover by rearrangement: the demand is König-colorable with
	// m=2, only the arrival order hid it.
	id, repacked, err := net.AddWithRepack(request)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- rearrangeable recovery ---\nrepacked=%v: request now carried as connection %d\n", repacked, id)
	if err := net.Verify(); err != nil {
		log.Fatal(err)
	}

	// 4. A middle module dies; re-route its traffic.
	victim := 0
	affected := net.AffectedBy(victim)
	if err := net.FailMiddle(victim); err != nil {
		log.Fatal(err)
	}
	migrated, dropped, err := net.RerouteAroundReport(victim)
	if err != nil {
		log.Fatal(err)
	}
	var restored []int
	for _, m := range migrated {
		restored = append(restored, m.ID)
	}
	fmt.Printf("\n--- middle module %d failed ---\naffected connections: %v, restored: %v, dropped: %v\n",
		victim, affected, restored, dropped)
	fmt.Println("(with only one middle left, some connections cannot be saved — that is the")
	fmt.Println(" provisioning trade-off the nonblocking bounds price out)")
	if err := net.Verify(); err != nil {
		log.Fatal(err)
	}
}
