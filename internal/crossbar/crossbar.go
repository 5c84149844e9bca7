// Package crossbar implements the paper's crossbar-based WDM multicast
// switch designs (Section 2.3, Figs. 4-7) as explicit optical fabrics:
//
//   - MSW (Figs. 4-5): k parallel single-wavelength space switches. Each
//     plane is a splitter/gate/combiner crossbar; the planes share the
//     port demuxes and muxes. k*In*Out crosspoints, no converters.
//
//   - MSDW (Fig. 6): a full (In*k) x (Out*k) gate matrix with one
//     wavelength converter per *input* slot, placed before the splitter so
//     one converter serves the whole multicast. k^2*In*Out crosspoints,
//     k*In converters.
//
//   - MAW (Fig. 7): the same gate matrix with one converter per *output*
//     slot, after the combiner, so every destination can pick its own
//     wavelength. k^2*In*Out crosspoints, k*Out converters.
//
// Switches may be rectangular (In != Out) because the multistage networks
// of Section 3 are assembled from n x m, r x r and m x n modules. A
// Switch tracks live connections, drives the underlying fabric's gates
// and converters, and can optically verify itself by propagating every
// held connection's signal and comparing arrivals against expectations.
//
// For large parameter sweeps where only routing feasibility and cost
// matter, NewLite builds a switch without the element graph: routing
// bookkeeping is identical but Verify is unavailable and Cost comes from
// the closed forms (which the audited fabrics are tested to match).
//
// Slot occupancy is two bitsets, one bit per input slot and one per
// output slot, indexed by PortWave.Index(k) as the multistage network's
// own slot tables are. They say only whether a slot is busy: the id of
// the connection holding it is found by scanning the held connections,
// which only a busy-slot error asks for. A multistage network holds
// hundreds of modules, so each keeps its occupancy to In*k + Out*k bits
// rather than a slot-to-id table.
package crossbar

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/wdm"
)

// Switch is a crossbar-based WDM multicast switch holding live multicast
// connections. It is not safe for concurrent use.
type Switch struct {
	shape wdm.Shape
	model wdm.Model
	fab   *fabric.Fabric // nil for lite switches

	// MSW plane gates: planeGates[wave][inPort][outPort].
	planeGates [][][]fabric.ElemID
	// Matrix gates for MSDW/MAW: matrixGates[inSlot][outSlot]
	// (slot = port*k + wave).
	matrixGates [][]fabric.ElemID
	// converters[slot]: input slots for MSDW, output slots for MAW.
	converters []fabric.ElemID

	conns  map[int]wdm.Connection
	nextID int
	// srcBusy and dstBusy hold one bit per input and output slot.
	srcBusy bitset
	dstBusy bitset
}

// bitset is a fixed-size set of slot indices.
type bitset []uint64

func bitsetWords(n int) int { return (n + 63) / 64 }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }

// New builds a square N x N crossbar switch of the given model. It panics
// on invalid dimensions (a constructor-time programming error).
func New(model wdm.Model, dim wdm.Dim) *Switch {
	return NewShape(model, dim.Shape())
}

// NewShape builds a (possibly rectangular) crossbar switch with a full
// gate-level fabric.
func NewShape(model wdm.Model, shape wdm.Shape) *Switch {
	s := newSwitch(model, shape)
	s.fab = fabric.New()
	switch model {
	case wdm.MSW:
		s.buildMSW()
	case wdm.MSDW, wdm.MAW:
		s.buildMatrix()
	default:
		panic(fmt.Sprintf("crossbar: unknown model %v", model))
	}
	if err := s.fab.Validate(); err != nil {
		panic("crossbar: construction bug: " + err.Error())
	}
	return s
}

// NewLite builds a switch with identical routing behaviour but no element
// graph. Lite switches cannot Verify; their Cost comes from the paper's
// closed forms.
func NewLite(model wdm.Model, shape wdm.Shape) *Switch {
	switch model {
	case wdm.MSW, wdm.MSDW, wdm.MAW:
	default:
		panic(fmt.Sprintf("crossbar: unknown model %v", model))
	}
	return newSwitch(model, shape)
}

func newSwitch(model wdm.Model, shape wdm.Shape) *Switch {
	if err := shape.Validate(); err != nil {
		panic("crossbar: " + err.Error())
	}
	// One allocation backs both bitsets.
	in := bitsetWords(shape.InSlots())
	busy := make(bitset, in+bitsetWords(shape.OutSlots()))
	return &Switch{
		shape:   shape,
		model:   model,
		conns:   make(map[int]wdm.Connection),
		srcBusy: busy[:in:in],
		dstBusy: busy[in:],
	}
}

// buildMSW realizes Figs. 4-5: per input port a demux; per wavelength
// plane an In x Out splitter/gate/combiner crossbar; per output port a
// mux.
func (s *Switch) buildMSW() {
	in, out, k := s.shape.In, s.shape.Out, s.shape.K
	f := s.fab

	demux := make([]fabric.ElemID, in)
	for q := 0; q < in; q++ {
		term := f.AddInput(wdm.Port(q))
		demux[q] = f.AddDemux(fmt.Sprintf("demux-in%d", q))
		f.Connect(term, demux[q])
	}
	mux := make([]fabric.ElemID, out)
	for p := 0; p < out; p++ {
		term := f.AddOutput(wdm.Port(p))
		mux[p] = f.AddMux(fmt.Sprintf("mux-out%d", p))
		f.Connect(mux[p], term)
	}

	// Demux outputs must be attached in wavelength order, so iterate
	// wavelengths innermost per input port.
	splitters := make([][]fabric.ElemID, in) // [q][w]
	for q := 0; q < in; q++ {
		splitters[q] = make([]fabric.ElemID, k)
		for w := 0; w < k; w++ {
			sp := f.AddSplitter(fmt.Sprintf("split-in%d-λ%d", q, w))
			splitters[q][w] = sp
			f.Connect(demux[q], sp) // w-th connect = λw branch
		}
	}
	combiners := make([][]fabric.ElemID, out) // [p][w]
	for p := 0; p < out; p++ {
		combiners[p] = make([]fabric.ElemID, k)
		for w := 0; w < k; w++ {
			cb := f.AddCombiner(fmt.Sprintf("comb-out%d-λ%d", p, w))
			combiners[p][w] = cb
			f.Connect(cb, mux[p])
		}
	}
	s.planeGates = make([][][]fabric.ElemID, k)
	for w := 0; w < k; w++ {
		s.planeGates[w] = make([][]fabric.ElemID, in)
		for q := 0; q < in; q++ {
			s.planeGates[w][q] = make([]fabric.ElemID, out)
			for p := 0; p < out; p++ {
				g := f.AddGate(fmt.Sprintf("gate-λ%d-%d>%d", w, q, p))
				s.planeGates[w][q][p] = g
				f.Connect(splitters[q][w], g)
				f.Connect(g, combiners[p][w])
			}
		}
	}
}

// buildMatrix realizes Figs. 6-7: a full (In*k) x (Out*k) gate matrix.
// Converters sit at input slots (MSDW) or output slots (MAW).
func (s *Switch) buildMatrix() {
	in, out, k := s.shape.In, s.shape.Out, s.shape.K
	f := s.fab

	demux := make([]fabric.ElemID, in)
	for q := 0; q < in; q++ {
		term := f.AddInput(wdm.Port(q))
		demux[q] = f.AddDemux(fmt.Sprintf("demux-in%d", q))
		f.Connect(term, demux[q])
	}
	mux := make([]fabric.ElemID, out)
	for p := 0; p < out; p++ {
		term := f.AddOutput(wdm.Port(p))
		mux[p] = f.AddMux(fmt.Sprintf("mux-out%d", p))
		f.Connect(mux[p], term)
	}

	inSlots, outSlots := in*k, out*k
	convCount := inSlots
	if s.model == wdm.MAW {
		convCount = outSlots
	}
	s.converters = make([]fabric.ElemID, convCount)

	// Input side: demux branch -> (converter for MSDW) -> splitter.
	splitters := make([]fabric.ElemID, inSlots)
	for q := 0; q < in; q++ {
		for w := 0; w < k; w++ {
			slot := q*k + w
			sp := f.AddSplitter(fmt.Sprintf("split-in%d-λ%d", q, w))
			splitters[slot] = sp
			if s.model == wdm.MSDW {
				cv := f.AddConverter(fmt.Sprintf("conv-in%d-λ%d", q, w))
				s.converters[slot] = cv
				f.Connect(demux[q], cv) // w-th connect = λw branch
				f.Connect(cv, sp)
			} else {
				f.Connect(demux[q], sp)
			}
		}
	}

	// Output side: combiner -> (converter for MAW) -> mux.
	combiners := make([]fabric.ElemID, outSlots)
	for p := 0; p < out; p++ {
		for w := 0; w < k; w++ {
			slot := p*k + w
			cb := f.AddCombiner(fmt.Sprintf("comb-out%d-λ%d", p, w))
			combiners[slot] = cb
			if s.model == wdm.MAW {
				cv := f.AddConverter(fmt.Sprintf("conv-out%d-λ%d", p, w))
				s.converters[slot] = cv
				f.Connect(cb, cv)
				f.Connect(cv, mux[p])
			} else {
				f.Connect(cb, mux[p])
			}
		}
	}

	s.matrixGates = make([][]fabric.ElemID, inSlots)
	for i := 0; i < inSlots; i++ {
		s.matrixGates[i] = make([]fabric.ElemID, outSlots)
		for o := 0; o < outSlots; o++ {
			g := f.AddGate(fmt.Sprintf("gate-%d>%d", i, o))
			s.matrixGates[i][o] = g
			f.Connect(splitters[i], g)
			f.Connect(g, combiners[o])
		}
	}
}

// Shape returns the switch's port/wavelength shape.
func (s *Switch) Shape() wdm.Shape { return s.shape }

// Model returns the switch's multicast model.
func (s *Switch) Model() wdm.Model { return s.model }

// Lite reports whether the switch was built without an element graph.
func (s *Switch) Lite() bool { return s.fab == nil }

// Fabric exposes the underlying element graph (nil for lite switches).
func (s *Switch) Fabric() *fabric.Fabric { return s.fab }

// Connections returns a snapshot of the held connections keyed by id.
func (s *Switch) Connections() map[int]wdm.Connection {
	out := make(map[int]wdm.Connection, len(s.conns))
	for id, c := range s.conns {
		out[id] = c.Clone()
	}
	return out
}

// Connection returns the held connection with the given id.
func (s *Switch) Connection(id int) (wdm.Connection, bool) {
	c, ok := s.conns[id]
	if !ok {
		return wdm.Connection{}, false
	}
	return c.Clone(), true
}

// Len returns the number of held connections.
func (s *Switch) Len() int { return len(s.conns) }

// SourceBusy reports whether an input slot is carrying a connection.
// It is false for a slot outside the switch.
func (s *Switch) SourceBusy(slot wdm.PortWave) bool {
	return s.shape.InRangeSource(slot) && s.srcBusy.has(slot.Index(s.shape.K))
}

// DestBusy reports whether an output slot is carrying a connection. It
// is false for a slot outside the switch.
func (s *Switch) DestBusy(slot wdm.PortWave) bool {
	return s.shape.InRangeDest(slot) && s.dstBusy.has(slot.Index(s.shape.K))
}

// sourceHolder returns the id of the held connection whose source is
// slot, or -1.
func (s *Switch) sourceHolder(slot wdm.PortWave) int {
	for id, c := range s.conns {
		if c.Source == slot {
			return id
		}
	}
	return -1
}

// destHolder returns the id of the held connection with a destination
// at slot, or -1.
func (s *Switch) destHolder(slot wdm.PortWave) int {
	for id, c := range s.conns {
		if slices.Contains(c.Dests, slot) {
			return id
		}
	}
	return -1
}
