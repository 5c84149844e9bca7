package multistage

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/wdm"
)

// These white-box tests corrupt internal state deliberately and assert
// that Verify detects each corruption class — the negative side of the
// verification contract (a verifier that never fails is vacuous).

func corruptibleNetwork(t *testing.T) *Network {
	t.Helper()
	net := mustNetwork(t, Params{N: 4, K: 2, R: 2, Model: wdm.MAW, Construction: MAWDominant})
	mustAdd(t, net, conn(pw(0, 0), pw(2, 1), pw(3, 0)))
	mustAdd(t, net, conn(pw(1, 1), pw(0, 0)))
	mustVerify(t, net)
	return net
}

func TestVerifyDetectsLeakedLink(t *testing.T) {
	net := corruptibleNetwork(t)
	// Mark an unused link wavelength as held by a phantom connection.
	for j := range net.outLink.xs {
		for p := range net.outLink.ys {
			for w, v := range net.outLink.link(j, p) {
				if v == freeLink {
					net.outLink.link(j, p)[w] = 999
					err := net.Verify()
					if err == nil || !strings.Contains(err.Error(), "leaked") {
						t.Fatalf("leaked link not detected: %v", err)
					}
					return
				}
			}
		}
	}
	t.Fatal("no free link found to corrupt")
}

func TestVerifyDetectsStolenLink(t *testing.T) {
	net := corruptibleNetwork(t)
	// Reassign a held link wavelength to the wrong connection id.
	for j := range net.outLink.xs {
		for p := range net.outLink.ys {
			for w, v := range net.outLink.link(j, p) {
				if v != freeLink {
					net.outLink.link(j, p)[w] = v + 1000
					err := net.Verify()
					if err == nil || !strings.Contains(err.Error(), "holds") {
						t.Fatalf("stolen link not detected: %v", err)
					}
					return
				}
			}
		}
	}
	t.Fatal("no held link found to corrupt")
}

func TestVerifyDetectsLeakedSlot(t *testing.T) {
	net := corruptibleNetwork(t)
	// Mark a free destination slot as held by a phantom connection.
	for slot, id := range net.dstBusy {
		if id == freeSlot {
			net.dstBusy[slot] = 999
			err := net.Verify()
			if err == nil || !strings.Contains(err.Error(), "leaked") {
				t.Fatalf("leaked slot not detected: %v", err)
			}
			return
		}
	}
	t.Fatal("no free slot found to corrupt")
}

// breakLoadedGate switches off one lit SOA gate in a loaded module of
// the given stage of the gate-level model Verify builds, and returns the
// model's verdict.
func breakLoadedGate(t *testing.T, net *Network, st stage) error {
	t.Helper()
	om, err := net.buildOptics()
	if err != nil {
		t.Fatal(err)
	}
	if err := om.verify(); err != nil {
		t.Fatalf("intact model: %v", err)
	}
	for _, m := range om[st] {
		fab := m.Fabric()
		for _, g := range fab.ElementsOf(fabric.Gate) {
			if fab.GateOn(g) {
				fab.SetGate(g, false)
				return om.verify()
			}
		}
	}
	t.Fatalf("no loaded %v module found", st)
	return nil
}

func TestVerifyDetectsModuleFault(t *testing.T) {
	// Break an SOA gate inside a middle module carrying traffic: the
	// per-module optical check must flag the middle stage.
	net := corruptibleNetwork(t)
	if err := breakLoadedGate(t, net, middleStage); err == nil || !strings.Contains(err.Error(), "middle module") {
		t.Fatalf("middle module fault not attributed: %v", err)
	}
}

func TestVerifyDetectsOutputStageFault(t *testing.T) {
	net := corruptibleNetwork(t)
	if err := breakLoadedGate(t, net, outputStage); err == nil || !strings.Contains(err.Error(), "output module") {
		t.Fatalf("output module fault not attributed: %v", err)
	}
}

func TestVerifyDetectsLostSubConnection(t *testing.T) {
	net := mustNetwork(t, fiveStageParams(wdm.MAW, MAWDominant))
	mustAdd(t, net, conn(pw(0, 0), pw(2, 1), pw(6, 0), pw(13, 1)))
	mustVerify(t, net)
	// Release a nested middle sub-connection behind the router's back.
	for id, rc := range net.conns {
		for i, cid := range rc.midConn {
			if err := net.mids[rc.legs[i].Middle].Release(cid); err != nil {
				t.Fatal(err)
			}
			err := net.Verify()
			if err == nil {
				t.Fatalf("connection %d: lost middle sub-connection undetected", id)
			}
			return
		}
	}
	t.Fatal("no nested middle sub-connection found")
}

// TestVerifyDetectsUnownedNestedConnection: a connection added straight
// to a nested middle network, which no route owns, keeps its links
// claimed; Verify must refuse it.
func TestVerifyDetectsUnownedNestedConnection(t *testing.T) {
	net := mustNetwork(t, fiveStageParams(wdm.MSW, MSWDominant))
	mustVerify(t, net)
	if _, err := net.mids[3].Add(conn(pw(1, 0), pw(2, 0))); err != nil {
		t.Fatal(err)
	}
	if err := net.mids[3].Verify(); err != nil {
		t.Fatalf("the nested network verifies itself: %v", err)
	}
	if err := net.Verify(); err == nil || !strings.Contains(err.Error(), "nested middle module 3") {
		t.Fatalf("unowned nested connection: Verify = %v", err)
	}
}
