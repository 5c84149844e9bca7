package multistage

import (
	"testing"

	"repro/internal/crossbar"
	"repro/internal/wdm"
)

// TestMultistageLossExceedsCrossbar: the multistage design trades gate
// count for optical budget — a three-stage path must lose more power
// than the single-crossbar path for the same N, k.
func TestMultistageLossExceedsCrossbar(t *testing.T) {
	for _, model := range wdm.Models {
		p, err := (Params{N: 64, K: 2, R: 8, Model: model}).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		net := Network{params: p}
		ms := net.PredictedWorstLossDB()
		cb := crossbar.PredictedWorstLossDB(model, wdm.Shape{In: 64, Out: 64, K: 2})
		if ms <= cb {
			t.Errorf("%v: multistage loss %.2f dB <= crossbar %.2f dB", model, ms, cb)
		}
	}
}

// TestDeeperMeansLossier: each added stage pair adds splitting stages,
// so the 5-stage budget exceeds the 3-stage one.
func TestDeeperMeansLossier(t *testing.T) {
	three, err := (Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Depth: 3}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	five, err := (Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Depth: 5}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	l3 := (&Network{params: three}).PredictedWorstLossDB()
	l5 := (&Network{params: five}).PredictedWorstLossDB()
	if l5 <= l3 {
		t.Errorf("5-stage loss %.2f dB <= 3-stage %.2f dB", l5, l3)
	}
}

// TestMeasuredModuleLossWithinBudget: the per-module losses measured by
// optical verification must each stay within that module's closed-form
// budget (the end-to-end budget is their sum).
func TestMeasuredModuleLossWithinBudget(t *testing.T) {
	net := mustNetwork(t, Params{N: 8, K: 2, R: 4, Model: wdm.MAW})
	mustAdd(t, net, conn(pw(0, 0), pw(3, 1), pw(6, 0)))
	om, err := net.buildOptics()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []stage{inputStage, outputStage} {
		budget := crossbar.PredictedWorstLossDB(net.params.module(st))
		for i, m := range om[st] {
			res, err := m.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxLossDB > budget+1e-9 {
				t.Errorf("module %d measured %.2f dB > budget %.2f dB", i, res.MaxLossDB, budget)
			}
		}
	}
}
