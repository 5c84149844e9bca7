package wdm

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestShapeValidate(t *testing.T) {
	if err := (Shape{In: 2, Out: 5, K: 3}).Validate(); err != nil {
		t.Errorf("valid rectangular shape rejected: %v", err)
	}
	for _, s := range []Shape{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid shape %+v accepted", s)
		}
	}
}

func TestShapeSlots(t *testing.T) {
	s := Shape{In: 3, Out: 5, K: 2}
	if s.InSlots() != 6 || s.OutSlots() != 10 {
		t.Errorf("slots = %d/%d, want 6/10", s.InSlots(), s.OutSlots())
	}
}

func TestShapeRectangularRanges(t *testing.T) {
	// A 2x4 switch: source port 3 invalid, destination port 3 valid.
	s := Shape{In: 2, Out: 4, K: 1}
	bad := Connection{Source: pw(3, 0), Dests: []PortWave{pw(0, 0)}}
	if err := s.CheckConnection(MAW, bad); err == nil {
		t.Error("source port beyond In accepted")
	}
	good := Connection{Source: pw(1, 0), Dests: []PortWave{pw(3, 0)}}
	if err := s.CheckConnection(MAW, good); err != nil {
		t.Errorf("destination port within Out rejected: %v", err)
	}
	reverse := Connection{Source: pw(0, 0), Dests: []PortWave{pw(3, 0)}}
	if err := (Shape{In: 4, Out: 2, K: 1}).CheckConnection(MAW, reverse); err == nil {
		t.Error("destination port beyond Out accepted")
	}
}

func TestShapeModelRules(t *testing.T) {
	s := Shape{In: 2, Out: 3, K: 2}
	shift := Connection{Source: pw(0, 0), Dests: []PortWave{pw(0, 1), pw(2, 1)}}
	if err := s.CheckConnection(MSW, shift); err == nil {
		t.Error("MSW accepted wavelength shift")
	}
	if err := s.CheckConnection(MSDW, shift); err != nil {
		t.Errorf("MSDW rejected common destination wavelength: %v", err)
	}
	mixed := Connection{Source: pw(0, 0), Dests: []PortWave{pw(0, 0), pw(1, 1)}}
	if err := s.CheckConnection(MSDW, mixed); err == nil {
		t.Error("MSDW accepted mixed destination wavelengths")
	}
	if err := s.CheckConnection(MAW, mixed); err != nil {
		t.Errorf("MAW rejected mixed wavelengths: %v", err)
	}
}

func TestShapeAssignment(t *testing.T) {
	s := Shape{In: 2, Out: 3, K: 1}
	ok := Assignment{
		{Source: pw(0, 0), Dests: []PortWave{pw(0, 0), pw(2, 0)}},
		{Source: pw(1, 0), Dests: []PortWave{pw(1, 0)}},
	}
	if err := s.CheckAssignment(MAW, ok); err != nil {
		t.Errorf("valid rectangular assignment rejected: %v", err)
	}
	clash := Assignment{
		{Source: pw(0, 0), Dests: []PortWave{pw(0, 0)}},
		{Source: pw(1, 0), Dests: []PortWave{pw(0, 0)}},
	}
	if err := s.CheckAssignment(MAW, clash); err == nil {
		t.Error("destination clash accepted")
	}
}

func TestDimShapeEquivalence(t *testing.T) {
	d := Dim{N: 3, K: 2}
	s := d.Shape()
	if s.In != 3 || s.Out != 3 || s.K != 2 {
		t.Errorf("Dim.Shape() = %+v", s)
	}
	c := Connection{Source: pw(0, 0), Dests: []PortWave{pw(2, 0)}}
	if (d.CheckConnection(MSW, c) == nil) != (s.CheckConnection(MSW, c) == nil) {
		t.Error("Dim and Shape disagree")
	}
}

// TestCheckConnectionFirstFault compares CheckConnection with the
// map-based check it replaced: on random destination lists of 1 to 80
// ports, sorted and unsorted, with repeated ports and out-of-range slots
// mixed in, both must report the same first fault.
func TestCheckConnectionFirstFault(t *testing.T) {
	s := Shape{In: 8, Out: 128, K: 2}
	reference := func(c Connection) string {
		seen := map[Port]bool{}
		for _, d := range c.Dests {
			if !s.InRangeDest(d) {
				return fmt.Sprintf("wdm: destination %v out of range for %dx%d k=%d switch", d, s.In, s.Out, s.K)
			}
			if seen[d.Port] {
				return fmt.Sprintf("wdm: two destinations of one connection share output port %d", d.Port)
			}
			seen[d.Port] = true
		}
		return ""
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		c := Connection{Source: pw(0, 0)}
		for _, p := range rng.Perm(s.Out)[:1+rng.Intn(80)] {
			c.Dests = append(c.Dests, pw(p, rng.Intn(s.K)))
		}
		if rng.Intn(3) == 0 {
			c = c.Normalize()
		}
		for n := rng.Intn(3); n > 0; n-- {
			c.Dests[rng.Intn(len(c.Dests))].Port = c.Dests[rng.Intn(len(c.Dests))].Port
		}
		if rng.Intn(4) == 0 {
			c.Dests[rng.Intn(len(c.Dests))].Wave = Wavelength(s.K)
		}
		got := ""
		if err := s.CheckConnection(MAW, c); err != nil {
			got = err.Error()
		}
		if want := reference(c); got != want {
			t.Fatalf("%v: got %q, want %q", c, got, want)
		}
	}
}
