package wdm

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSlotRoundTrip(t *testing.T) {
	f := func(p, w uint8) bool {
		slot := PortWave{Port: Port(p), Wave: Wavelength(w)}
		got, err := ParseSlot(FormatSlot(slot))
		return err == nil && got == slot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseSlotErrors(t *testing.T) {
	for _, s := range []string{"", "1", "1.2.3", "a.b", "1.", ".1", "-1.0", "0.-2"} {
		if _, err := ParseSlot(s); err == nil {
			t.Errorf("ParseSlot(%q) accepted", s)
		}
	}
}

func TestConnectionRoundTrip(t *testing.T) {
	c := Connection{Source: pw(0, 1), Dests: []PortWave{pw(3, 0), pw(2, 1), pw(5, 2)}}
	s := FormatConnection(c)
	if s != "0.1>3.0,2.1,5.2" {
		t.Errorf("FormatConnection = %q", s)
	}
	got, err := ParseConnection(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != c.Source || len(got.Dests) != 3 || got.Dests[1] != pw(2, 1) {
		t.Errorf("round trip = %v", got)
	}
}

// TestFormatMatchesSprintf: the strconv-built forms are byte for byte
// the "%d.%d" form, for ports and wavelengths of one to five digits,
// and parse back to the connection they came from. The longer
// connections overflow FormatConnection's stack buffer.
func TestFormatMatchesSprintf(t *testing.T) {
	values := []int{0, 7, 10, 99, 100, 999, 1000, 9999, 10000, 99999}
	var slots []PortWave
	for _, p := range values {
		for _, w := range values {
			slot := pw(p, w)
			if got, want := FormatSlot(slot), fmt.Sprintf("%d.%d", p, w); got != want {
				t.Errorf("FormatSlot(%v) = %q, want %q", slot, got, want)
			}
			slots = append(slots, slot)
		}
	}
	for fanout := 1; fanout < len(slots); fanout += 9 {
		c := Connection{Source: slots[fanout], Dests: slots[:fanout]}
		parts := make([]string, fanout)
		for i, d := range c.Dests {
			parts[i] = fmt.Sprintf("%d.%d", d.Port, d.Wave)
		}
		want := fmt.Sprintf("%d.%d>%s", c.Source.Port, c.Source.Wave, strings.Join(parts, ","))
		got := FormatConnection(c)
		if got != want {
			t.Fatalf("fanout %d: FormatConnection = %q, want %q", fanout, got, want)
		}
		back, err := ParseConnection(got)
		if err != nil {
			t.Fatalf("fanout %d: ParseConnection(%q): %v", fanout, got, err)
		}
		if back.Source != c.Source || !slices.Equal(back.Dests, c.Dests) {
			t.Fatalf("fanout %d: %q parsed to %v, want %v", fanout, got, back, c)
		}
	}
}

func TestParseConnectionErrors(t *testing.T) {
	for _, s := range []string{"", "1.0", "1.0>", ">2.0", "1.0>2", "x>2.0", "1.0>2.0,"} {
		if _, err := ParseConnection(s); err == nil {
			t.Errorf("ParseConnection(%q) accepted", s)
		}
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	a := Assignment{
		{Source: pw(0, 0), Dests: []PortWave{pw(1, 0), pw(2, 0)}},
		{Source: pw(1, 1), Dests: []PortWave{pw(0, 1)}},
	}
	s := FormatAssignment(a)
	got, err := ParseAssignment(s)
	if err != nil {
		t.Fatal(err)
	}
	if FormatAssignment(got) != s {
		t.Errorf("round trip %q != %q", FormatAssignment(got), s)
	}
}

func TestParseAssignmentEmpty(t *testing.T) {
	a, err := ParseAssignment("  ")
	if err != nil || len(a) != 0 {
		t.Errorf("empty assignment: %v, %v", a, err)
	}
}

func TestAssignmentCodecWithValidation(t *testing.T) {
	// A parsed assignment must validate like the original.
	d := Dim{N: 3, K: 2}
	a := Assignment{
		{Source: pw(0, 0), Dests: []PortWave{pw(0, 0), pw(1, 0)}},
		{Source: pw(2, 1), Dests: []PortWave{pw(2, 1)}},
	}
	if err := d.CheckAssignment(MSW, a); err != nil {
		t.Fatal(err)
	}
	got, err := ParseAssignment(FormatAssignment(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckAssignment(MSW, got); err != nil {
		t.Errorf("parsed assignment fails validation: %v", err)
	}
}
