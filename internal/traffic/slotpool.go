package traffic

import (
	"fmt"

	"repro/internal/wdm"
)

// SlotPool is a worker-local free-slot pool over a port subset: the
// engine's only record of which slots its requests hold. Take and Put are
// O(1) (swap-delete against a position index) and panic on double
// take/free — a pool inconsistency means the closed loop lost track of
// a session, which would silently turn admissible requests into
// inadmissible ones.
type SlotPool struct {
	free []wdm.PortWave
	pos  map[wdm.PortWave]int
}

// NewSlotPool returns a pool holding every wavelength slot of the given
// ports, all free.
func NewSlotPool(ports []int, k int) *SlotPool {
	s := &SlotPool{pos: make(map[wdm.PortWave]int, len(ports)*k)}
	for _, p := range ports {
		for w := 0; w < k; w++ {
			s.Put(wdm.PortWave{Port: wdm.Port(p), Wave: wdm.Wavelength(w)})
		}
	}
	return s
}

// Slots returns the free slots (the pool's own slice; treat as
// read-only and invalidated by Take/Put).
func (s *SlotPool) Slots() []wdm.PortWave { return s.free }

// Take marks a free slot busy.
func (s *SlotPool) Take(slot wdm.PortWave) {
	i, ok := s.pos[slot]
	if !ok {
		panic(fmt.Sprintf("traffic: taking slot %v twice", slot))
	}
	last := len(s.free) - 1
	s.free[i] = s.free[last]
	s.pos[s.free[i]] = i
	s.free = s.free[:last]
	delete(s.pos, slot)
}

// Put marks a busy slot free.
func (s *SlotPool) Put(slot wdm.PortWave) {
	if _, dup := s.pos[slot]; dup {
		panic(fmt.Sprintf("traffic: freeing slot %v twice", slot))
	}
	s.pos[slot] = len(s.free)
	s.free = append(s.free, slot)
}
