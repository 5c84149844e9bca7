package crossbar

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/wdm"
)

// ErrVerifyLite is returned by Verify on switches built with NewLite.
var ErrVerifyLite = errors.New("crossbar: lite switch has no fabric to verify")

// Add routes a new multicast connection through the switch. It returns a
// connection id usable with Release. Add fails if the connection is
// inadmissible under the switch's model, if its source slot already
// carries a connection, or if any destination slot is already in use.
//
// Because the crossbar designs are strictly nonblocking, admissibility of
// the *assignment* (this connection plus the held ones) is the only
// requirement: Add never fails for lack of internal paths.
func (s *Switch) Add(c wdm.Connection) (int, error) {
	if err := s.shape.CheckConnection(s.model, c); err != nil {
		return 0, err
	}
	k := s.shape.K
	if s.srcBusy.has(c.Source.Index(k)) {
		return 0, fmt.Errorf("crossbar: source slot %v already used by connection %d", c.Source, s.sourceHolder(c.Source))
	}
	for _, d := range c.Dests {
		if s.dstBusy.has(d.Index(k)) {
			return 0, fmt.Errorf("crossbar: destination slot %v already used by connection %d", d, s.destHolder(d))
		}
	}

	c = c.Normalize()
	id := s.nextID
	s.nextID++

	if s.fab != nil {
		s.configureFabric(c, true)
		s.fab.Inject(c.Source, id)
	}
	s.conns[id] = c
	s.srcBusy.set(c.Source.Index(k))
	for _, d := range c.Dests {
		s.dstBusy.set(d.Index(k))
	}
	return id, nil
}

// configureFabric turns a connection's gates (and converters) on or off.
func (s *Switch) configureFabric(c wdm.Connection, on bool) {
	k := s.shape.K
	switch s.model {
	case wdm.MSW:
		w := int(c.Source.Wave)
		for _, d := range c.Dests {
			s.fab.SetGate(s.planeGates[w][c.Source.Port][d.Port], on)
		}
	case wdm.MSDW:
		in := c.Source.Index(k)
		// One converter, before the splitter, retunes the whole multicast
		// to the common destination wavelength.
		target := c.Dests[0].Wave
		if !on {
			target = fabric.NoConversion
		}
		s.fab.SetConverter(s.converters[in], target)
		for _, d := range c.Dests {
			s.fab.SetGate(s.matrixGates[in][d.Index(k)], on)
		}
	case wdm.MAW:
		in := c.Source.Index(k)
		for _, d := range c.Dests {
			out := d.Index(k)
			s.fab.SetGate(s.matrixGates[in][out], on)
			// The output-side converter retunes this destination's copy.
			target := d.Wave
			if !on {
				target = fabric.NoConversion
			}
			s.fab.SetConverter(s.converters[out], target)
		}
	}
}

// Release tears down a held connection, restoring all fabric state it
// occupied.
func (s *Switch) Release(id int) error {
	c, ok := s.conns[id]
	if !ok {
		return fmt.Errorf("crossbar: no connection with id %d", id)
	}
	if s.fab != nil {
		s.configureFabric(c, false)
	}
	delete(s.conns, id)
	k := s.shape.K
	s.srcBusy.clear(c.Source.Index(k))
	for _, d := range c.Dests {
		s.dstBusy.clear(d.Index(k))
	}
	if s.fab != nil {
		// Re-derive injections from the surviving connections.
		s.fab.ClearSignals()
		for cid, cc := range s.conns {
			s.fab.Inject(cc.Source, cid)
		}
	}
	return nil
}

// Reset releases every held connection at once.
func (s *Switch) Reset() {
	ids := make([]int, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := s.Release(id); err != nil {
			panic("crossbar: Reset lost track of connection: " + err.Error())
		}
	}
}

// AddAssignment routes every connection of an assignment, returning the
// ids in order. On failure it rolls back the connections it added.
func (s *Switch) AddAssignment(a wdm.Assignment) ([]int, error) {
	ids := make([]int, 0, len(a))
	for i, c := range a {
		id, err := s.Add(c)
		if err != nil {
			for _, rid := range ids {
				_ = s.Release(rid)
			}
			return nil, fmt.Errorf("connection %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Verify optically validates the switch: it propagates every held
// connection's signal through the element graph and checks that each
// connection is delivered to exactly its destination slots — no drops, no
// strays, no collisions. It returns the propagation result for inspection
// (power loss, hop counts) alongside any fault.
func (s *Switch) Verify() (*fabric.Result, error) {
	if s.fab == nil {
		return nil, ErrVerifyLite
	}
	res, err := s.fab.Propagate()
	if err != nil {
		return nil, err
	}
	// Expected arrivals: the connection id per destination slot index,
	// -1 where none is due.
	k := s.shape.K
	expected := make([]int, s.shape.OutSlots())
	for i := range expected {
		expected[i] = -1
	}
	for id, c := range s.conns {
		for _, d := range c.Dests {
			expected[d.Index(k)] = id
		}
	}
	for i, want := range expected {
		if want < 0 {
			continue
		}
		slot := wdm.SlotFromIndex(i, k)
		got, ok := res.Arrived[slot]
		if !ok {
			return res, fmt.Errorf("crossbar: connection %d signal missing at %v", want, slot)
		}
		if got.ID != want {
			return res, fmt.Errorf("crossbar: slot %v received signal %d, want %d", slot, got.ID, want)
		}
	}
	for slot, sig := range res.Arrived {
		if !s.shape.InRangeDest(slot) || expected[slot.Index(k)] < 0 {
			return res, fmt.Errorf("crossbar: stray signal %d arrived at unexpected slot %v", sig.ID, slot)
		}
	}
	return res, nil
}
