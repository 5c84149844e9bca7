package crossbar

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/wdm"
)

func TestRectangularSwitchRoutes(t *testing.T) {
	// A 2x4 input-stage-style module: multicast from one input to several
	// of the 4 outputs.
	sh := wdm.Shape{In: 2, Out: 4, K: 2}
	for _, m := range wdm.Models {
		s := NewShape(m, sh)
		c := conn(pw(0, 0), pw(0, 0), pw(2, 0), pw(3, 0))
		if _, err := s.Add(c); err != nil {
			t.Fatalf("%v rect: %v", m, err)
		}
		mustVerify(t, s)
	}
}

func TestRectangularCostFormula(t *testing.T) {
	shapes := []wdm.Shape{
		{In: 2, Out: 6, K: 2},
		{In: 6, Out: 2, K: 3},
		{In: 4, Out: 4, K: 1},
		{In: 3, Out: 5, K: 4},
	}
	for _, sh := range shapes {
		for _, m := range wdm.Models {
			audit := NewShape(m, sh).Cost()
			formula := CostFormula(m, sh)
			if audit != formula {
				t.Errorf("%v %dx%d k=%d: audit %+v != formula %+v", m, sh.In, sh.Out, sh.K, audit, formula)
			}
		}
	}
}

func TestLiteMatchesFabricRouting(t *testing.T) {
	// Lite and fabric-backed switches must accept/reject identically.
	sh := wdm.Shape{In: 3, Out: 3, K: 2}
	for _, m := range wdm.Models {
		full := NewShape(m, sh)
		lite := NewLite(m, sh)
		conns := []wdm.Connection{
			conn(pw(0, 0), pw(0, 0), pw(1, 0)),
			conn(pw(0, 0), pw(2, 0)),           // duplicate source: both reject
			conn(pw(1, 0), pw(0, 0)),           // duplicate destination: both reject
			conn(pw(1, 1), pw(2, 1)),           // fresh: both accept
			conn(pw(2, 0), pw(2, 0), pw(2, 1)), // same port twice: both reject
		}
		for i, c := range conns {
			_, errFull := full.Add(c)
			_, errLite := lite.Add(c)
			if (errFull == nil) != (errLite == nil) {
				t.Errorf("%v conn %d: full err=%v, lite err=%v", m, i, errFull, errLite)
			}
		}
		if full.Len() != lite.Len() {
			t.Errorf("%v: full holds %d, lite holds %d", m, full.Len(), lite.Len())
		}
		if full.Cost() != lite.Cost() {
			t.Errorf("%v: full cost %+v != lite cost %+v", m, full.Cost(), lite.Cost())
		}
	}
}

func TestLiteVerifyUnavailable(t *testing.T) {
	s := NewLite(wdm.MAW, wdm.Shape{In: 2, Out: 2, K: 1})
	if _, err := s.Verify(); !errors.Is(err, ErrVerifyLite) {
		t.Errorf("lite Verify err = %v, want ErrVerifyLite", err)
	}
}

func TestLiteReleaseAndReuse(t *testing.T) {
	s := NewLite(wdm.MSW, wdm.Shape{In: 2, Out: 2, K: 1})
	id, err := s.Add(conn(pw(0, 0), pw(0, 0), pw(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(conn(pw(1, 0), pw(0, 0))); err != nil {
		t.Fatalf("slot not freed in lite switch: %v", err)
	}
}

func TestBusyQueries(t *testing.T) {
	s := NewLite(wdm.MAW, wdm.Shape{In: 2, Out: 2, K: 2})
	if _, err := s.Add(conn(pw(0, 1), pw(1, 0))); err != nil {
		t.Fatal(err)
	}
	if !s.SourceBusy(pw(0, 1)) || s.SourceBusy(pw(0, 0)) {
		t.Error("SourceBusy wrong")
	}
	if !s.DestBusy(pw(1, 0)) || s.DestBusy(pw(1, 1)) {
		t.Error("DestBusy wrong")
	}
}

// TestBusySlotErrorsNameHolder: a busy source or destination slot is
// refused with the id of the connection holding it, on lite and
// gate-level switches alike.
func TestBusySlotErrorsNameHolder(t *testing.T) {
	sh := wdm.Shape{In: 3, Out: 3, K: 2}
	for _, lite := range []bool{false, true} {
		s := NewShape(wdm.MAW, sh)
		if lite {
			s = NewLite(wdm.MAW, sh)
		}
		first := mustAdd(t, s, conn(pw(0, 0), pw(0, 0)))
		holder := mustAdd(t, s, conn(pw(1, 1), pw(0, 1), pw(2, 0)))
		mustAdd(t, s, conn(pw(2, 0), pw(1, 0)))
		if err := s.Release(first); err != nil {
			t.Fatal(err)
		}

		_, err := s.Add(conn(pw(1, 1), pw(1, 1)))
		want := fmt.Sprintf("crossbar: source slot %v already used by connection %d", pw(1, 1), holder)
		if err == nil || err.Error() != want {
			t.Errorf("lite=%v busy source: err %v, want %q", lite, err, want)
		}
		_, err = s.Add(conn(pw(0, 0), pw(1, 1), pw(2, 0)))
		want = fmt.Sprintf("crossbar: destination slot %v already used by connection %d", pw(2, 0), holder)
		if err == nil || err.Error() != want {
			t.Errorf("lite=%v busy destination: err %v, want %q", lite, err, want)
		}
	}
}

func TestConnectionLookup(t *testing.T) {
	s := NewLite(wdm.MAW, wdm.Shape{In: 2, Out: 2, K: 1})
	id, err := s.Add(conn(pw(0, 0), pw(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Connection(id)
	if !ok || got.Source != pw(0, 0) {
		t.Errorf("Connection(%d) = %v, %v", id, got, ok)
	}
	if _, ok := s.Connection(id + 1); ok {
		t.Error("Connection on unknown id returned ok")
	}
}
