package main

import (
	"bytes"
	"testing"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/wdm"
)

func render(spec StreamSpec, seed int64, n int) []byte {
	g := NewGenerator(spec, seed)
	var b []byte
	for i := 0; i < n; i++ {
		b = g.Next().AppendText(b)
	}
	return b
}

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := render(w.spec, 7, 20000), render(w.spec, 7, 20000)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: seed 7 gave two different streams", w.name)
		}
		if bytes.Equal(a, render(w.spec, 8, 20000)) {
			t.Fatalf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

// TestStreamAdmissible checks every generated request against an
// independent slot mirror: sources and destinations free, one port per
// destination, every slot on the source's wavelength (MSW).
func TestStreamAdmissible(t *testing.T) {
	for _, w := range workloads {
		spec := w.spec
		shape := wdm.Shape{In: spec.N, Out: spec.N, K: spec.K}
		srcBusy := map[wdm.PortWave]bool{}
		dstBusy := map[wdm.PortWave]bool{}
		live := map[int]wdm.Connection{}
		g := NewGenerator(spec, 11)
		counts := [numOpKinds]int{}
		for i := 0; i < 50000; i++ {
			op := g.Next()
			counts[op.Kind]++
			switch op.Kind {
			case OpConnect:
				if err := shape.CheckConnection(wdm.MSW, op.Conn); err != nil {
					t.Fatalf("%s op %d: %v", w.name, i, err)
				}
				if srcBusy[op.Conn.Source] {
					t.Fatalf("%s op %d: source %v busy", w.name, i, op.Conn.Source)
				}
				srcBusy[op.Conn.Source] = true
				for _, d := range op.Conn.Dests {
					if dstBusy[d] {
						t.Fatalf("%s op %d: destination %v busy", w.name, i, d)
					}
					dstBusy[d] = true
				}
				if _, dup := live[op.Sess]; dup {
					t.Fatalf("%s op %d: session %d connected twice", w.name, i, op.Sess)
				}
				live[op.Sess] = op.Conn.Clone()
			case OpBranch:
				c, ok := live[op.Sess]
				if !ok {
					t.Fatalf("%s op %d: branch of dead session %d", w.name, i, op.Sess)
				}
				for _, d := range op.Conn.Dests {
					if dstBusy[d] {
						t.Fatalf("%s op %d: branch slot %v busy", w.name, i, d)
					}
					dstBusy[d] = true
				}
				c.Dests = append(c.Dests, op.Conn.Dests...)
				if err := shape.CheckConnection(wdm.MSW, c); err != nil {
					t.Fatalf("%s op %d: grown session: %v", w.name, i, err)
				}
				live[op.Sess] = c
			case OpRead:
				if _, ok := live[op.Sess]; !ok {
					t.Fatalf("%s op %d: read of dead session %d", w.name, i, op.Sess)
				}
			case OpDisconnect:
				c, ok := live[op.Sess]
				if !ok {
					t.Fatalf("%s op %d: disconnect of dead session %d", w.name, i, op.Sess)
				}
				delete(srcBusy, c.Source)
				for _, d := range c.Dests {
					delete(dstBusy, d)
				}
				delete(live, op.Sess)
			}
		}
		for k, n := range counts {
			if n == 0 && !(spec.Unicast && OpKind(k) == OpBranch) {
				t.Errorf("%s: no %s ops in 50000", w.name, OpKind(k))
			}
		}
		if !spec.Unicast {
			if busy := float64(len(dstBusy)) / float64(spec.N*spec.K); busy < spec.Busy-0.1 || busy > spec.Busy+0.1 {
				t.Errorf("%s: %.2f of output slots busy, want about %.2f", w.name, busy, spec.Busy)
			}
		}
	}
}

// TestStreamRoutesAtBound replays streams on an MSW fabric at its
// sufficient bound: Theorem 1 says nothing blocks, and every read must
// return what the stream connected.
func TestStreamRoutesAtBound(t *testing.T) {
	specs := []StreamSpec{
		{N: 64, K: 2, R: 8, Unicast: true},
		{N: 64, K: 2, R: 8, MaxFanout: 8, Busy: 0.7, BranchShare: 0.3, BranchMax: 3, ReadShare: 0.1},
	}
	d, err := backend.Get("msw")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		b, err := d.New(multistage.Params{N: spec.N, K: spec.K, R: spec.R, Model: wdm.MSW, Lite: true})
		if err != nil {
			t.Fatal(err)
		}
		r := newReplayer(&backendLayer{b: b})
		g := NewGenerator(spec, 3)
		for i := 0; i < 20000; i++ {
			op := g.Next()
			if out, _ := r.do(&op); out != outOK {
				t.Fatalf("%s op %d (%s): outcome %s: %v", spec, i, op.Kind, outcomeName[out], r.firstErr)
			}
		}
		r.teardown()
		if b.Len() != 0 || r.c.errors != 0 || r.c.blocked != 0 {
			t.Fatalf("%s: %d left, %d errors, %d blocked", spec, b.Len(), r.c.errors, r.c.blocked)
		}
	}
}
