package wdm

import (
	"cmp"
	"fmt"
	"slices"
)

// Shape describes a possibly rectangular WDM switch: In input ports, Out
// output ports, K wavelengths per fiber. The paper's multistage networks
// (Section 3) are built from rectangular modules — n x m in the input
// stage, r x r in the middle, m x n in the output stage — so connection
// admissibility must be checkable against distinct side sizes.
type Shape struct {
	In, Out, K int
}

// Validate checks that all dimensions are positive.
func (s Shape) Validate() error {
	if s.In <= 0 {
		return fmt.Errorf("wdm: shape In = %d, must be positive", s.In)
	}
	if s.Out <= 0 {
		return fmt.Errorf("wdm: shape Out = %d, must be positive", s.Out)
	}
	if s.K <= 0 {
		return fmt.Errorf("wdm: shape k = %d, must be positive", s.K)
	}
	return nil
}

// InSlots and OutSlots return the wavelength-slot counts per side.
func (s Shape) InSlots() int  { return s.In * s.K }
func (s Shape) OutSlots() int { return s.Out * s.K }

// InRangeSource reports whether pw is a valid input slot.
func (s Shape) InRangeSource(pw PortWave) bool {
	return pw.Port >= 0 && int(pw.Port) < s.In && pw.Wave >= 0 && int(pw.Wave) < s.K
}

// InRangeDest reports whether pw is a valid output slot.
func (s Shape) InRangeDest(pw PortWave) bool {
	return pw.Port >= 0 && int(pw.Port) < s.Out && pw.Wave >= 0 && int(pw.Wave) < s.K
}

// CheckConnection verifies structural validity and model admissibility of
// a connection against the rectangular shape. The rules are those of
// Dim.CheckConnection with the two sides sized independently.
func (s Shape) CheckConnection(model Model, c Connection) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if !s.InRangeSource(c.Source) {
		return fmt.Errorf("wdm: source %v out of range for %dx%d k=%d switch", c.Source, s.In, s.Out, s.K)
	}
	if len(c.Dests) == 0 {
		return fmt.Errorf("wdm: connection from %v has no destinations", c.Source)
	}
	repeat := firstRepeatedPort(c.Dests)
	for i, dst := range c.Dests {
		if !s.InRangeDest(dst) {
			return fmt.Errorf("wdm: destination %v out of range for %dx%d k=%d switch", dst, s.In, s.Out, s.K)
		}
		if i == repeat {
			return fmt.Errorf("wdm: two destinations of one connection share output port %d", dst.Port)
		}
	}
	switch model {
	case MSW:
		for _, dst := range c.Dests {
			if dst.Wave != c.Source.Wave {
				return fmt.Errorf("wdm: MSW connection from %v uses destination wavelength λ%d != source wavelength λ%d",
					c.Source, dst.Wave, c.Source.Wave)
			}
		}
	case MSDW:
		w := c.Dests[0].Wave
		for _, dst := range c.Dests[1:] {
			if dst.Wave != w {
				return fmt.Errorf("wdm: MSDW connection from %v mixes destination wavelengths λ%d and λ%d",
					c.Source, w, dst.Wave)
			}
		}
	case MAW:
		// No wavelength restriction.
	default:
		return fmt.Errorf("wdm: unknown model %v", model)
	}
	return nil
}

// firstRepeatedPort returns the index of the first destination whose
// port an earlier destination already uses, or -1 if the ports are
// distinct. Lists in ascending port order (Normalize order, and every
// list a multistage module receives) take one pass; unsorted lists take
// O(f log f) with one allocation.
func firstRepeatedPort(dests []PortWave) int {
	i := 1
	for i < len(dests) && dests[i].Port > dests[i-1].Port {
		i++
	}
	switch {
	case i >= len(dests):
		return -1
	case dests[i].Port == dests[i-1].Port:
		return i // the ports before i are strictly increasing
	}
	// Order the indices by (port, index): in each run of one port, every
	// index after the run's first repeats it, so the smallest of those
	// is the answer.
	idx := make([]int, len(dests))
	for k := range idx {
		idx[k] = k
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(dests[a].Port, dests[b].Port); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	first := -1
	for k := 1; k < len(idx); k++ {
		if dests[idx[k]].Port == dests[idx[k-1]].Port && (first < 0 || idx[k] < first) {
			first = idx[k]
		}
	}
	return first
}

// CheckAssignment verifies that every connection is admissible and that
// connections are pairwise compatible (no shared source or destination
// slot).
func (s Shape) CheckAssignment(model Model, a Assignment) error {
	srcUsed := make(map[PortWave]int, len(a))
	dstUsed := make(map[PortWave]int, s.OutSlots())
	for i, c := range a {
		if err := s.CheckConnection(model, c); err != nil {
			return fmt.Errorf("connection %d: %w", i, err)
		}
		if j, dup := srcUsed[c.Source]; dup {
			return fmt.Errorf("wdm: connections %d and %d share source slot %v", j, i, c.Source)
		}
		srcUsed[c.Source] = i
		for _, dst := range c.Dests {
			if j, dup := dstUsed[dst]; dup {
				return fmt.Errorf("wdm: connections %d and %d share destination slot %v", j, i, dst)
			}
			dstUsed[dst] = i
		}
	}
	return nil
}

// Shape converts square dimensions to the equivalent Shape.
func (d Dim) Shape() Shape { return Shape{In: d.N, Out: d.N, K: d.K} }
