package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/wdm"
)

// OpKind is one request type of the op stream.
type OpKind uint8

const (
	OpConnect OpKind = iota
	OpBranch
	OpRead
	OpDisconnect
	numOpKinds
)

var opNames = [numOpKinds]string{"connect", "branch", "read", "disconnect"}

func (k OpKind) String() string { return opNames[k] }

// Op is one generated request. Sess is the stream-local session index:
// connects number sessions 0, 1, 2, ... in stream order, and every later
// op names its session by that index, so a replay maps it to whatever id
// the layer under test handed out. Conn is the connect request; for a
// branch only Conn.Dests (the added slots) is set.
type Op struct {
	Kind OpKind
	Sess int
	Conn wdm.Connection
}

// AppendText renders the op in a stable one-line text form; two streams
// are identical exactly when their renderings are byte-identical.
func (op Op) AppendText(b []byte) []byte {
	b = append(b, op.Kind.String()...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(op.Sess), 10)
	switch op.Kind {
	case OpConnect:
		b = append(b, ' ')
		b = append(b, wdm.FormatConnection(op.Conn)...)
	case OpBranch:
		for _, d := range op.Conn.Dests {
			b = append(b, ' ')
			b = append(b, wdm.FormatSlot(d)...)
		}
	}
	return append(b, '\n')
}

// StreamSpec shapes a seeded op stream over an N-port, K-wavelength
// switch with R outer-stage modules.
type StreamSpec struct {
	N, K, R int
	// Unicast selects the request/reply cycle connect (adjacent-port
	// unicast) -> read -> disconnect; the fields below are then unused.
	Unicast bool
	// MaxFanout bounds a connect's fanout (uniform in 1..MaxFanout).
	MaxFanout int
	// Busy is the share of output slots the stream holds occupied:
	// below it the stream grows (connect or branch), above it a random
	// live session is torn down.
	Busy float64
	// BranchShare is the chance a growth step is an AddBranch on a live
	// session rather than a new connect; BranchMax bounds the slots one
	// branch adds.
	BranchShare float64
	BranchMax   int
	// ReadShare is the chance any step is a session read.
	ReadShare float64
}

// genSession is the generator's own record of a live session.
type genSession struct {
	wave  wdm.Wavelength
	src   int   // source slot index
	dests []int // destination slot indices
}

// Generator produces a deterministic op stream from a seed. It keeps its
// own slot bookkeeping and only ever generates admissible requests
// against it: a connect's source and destination slots and a branch's
// added slots are free, destinations of one session sit on distinct
// ports, and every slot carries the source's wavelength (MSW). A layer
// that routes a subset of the stream (blocked connects and branches
// leave their slots free) therefore never sees an inadmissible request
// either, so any block at the bound is a genuine fabric block.
type Generator struct {
	spec    StreamSpec
	rng     *rand.Rand
	srcBusy []bool
	dstBusy []bool
	busy    int
	live    []int
	sess    map[int]*genSession
	next    int
	step    int   // unicast cycle position
	mark    []int // per-port pick stamps
	stamp   int
}

// NewGenerator starts a stream for spec from seed.
func NewGenerator(spec StreamSpec, seed int64) *Generator {
	slots := spec.N * spec.K
	return &Generator{
		spec:    spec,
		rng:     rand.New(rand.NewSource(seed)),
		srcBusy: make([]bool, slots),
		dstBusy: make([]bool, slots),
		sess:    make(map[int]*genSession),
		mark:    make([]int, spec.N),
	}
}

// Next returns the stream's next op.
func (g *Generator) Next() Op {
	if g.spec.Unicast {
		return g.nextUnicast()
	}
	if len(g.live) > 0 && g.rng.Float64() < g.spec.ReadShare {
		return Op{Kind: OpRead, Sess: g.live[g.rng.Intn(len(g.live))]}
	}
	if float64(g.busy) < g.spec.Busy*float64(len(g.dstBusy)) {
		if len(g.live) > 0 && g.rng.Float64() < g.spec.BranchShare {
			if op, ok := g.branch(); ok {
				return op
			}
		}
		if op, ok := g.connect(); ok {
			return op
		}
	}
	if len(g.live) == 0 {
		panic("ladderbench: stream spec leaves no admissible op")
	}
	return g.disconnect(g.rng.Intn(len(g.live)))
}

// nextUnicast cycles connect -> read -> disconnect on a random
// adjacent-port lane 2p.w -> (2p+1).w.
func (g *Generator) nextUnicast() Op {
	defer func() { g.step = (g.step + 1) % 3 }()
	switch g.step {
	case 0:
		p := 2 * g.rng.Intn(g.spec.N/2)
		w := wdm.Wavelength(g.rng.Intn(g.spec.K))
		src := wdm.PortWave{Port: wdm.Port(p), Wave: w}
		dst := wdm.PortWave{Port: wdm.Port(p + 1), Wave: w}
		return g.open(src, []wdm.PortWave{dst})
	case 1:
		return Op{Kind: OpRead, Sess: g.live[0]}
	default:
		return g.disconnect(0)
	}
}

// connect draws a free source slot, a fanout in 1..MaxFanout, and that
// many free destination slots on distinct ports at the source's
// wavelength. The fanout shrinks to what free slots allow.
func (g *Generator) connect() (Op, bool) {
	var src int
	found := false
	for try := 0; try < 64; try++ {
		src = g.rng.Intn(len(g.srcBusy))
		if !g.srcBusy[src] {
			found = true
			break
		}
	}
	if !found {
		return Op{}, false
	}
	pw := wdm.SlotFromIndex(src, g.spec.K)
	dests := g.freeDests(pw.Wave, 1+g.rng.Intn(g.spec.MaxFanout))
	if len(dests) == 0 {
		return Op{}, false
	}
	return g.open(pw, dests), true
}

// freeDests picks up to want free destination slots on wavelength w at
// distinct ports, by rejection sampling with a bounded number of draws.
func (g *Generator) freeDests(w wdm.Wavelength, want int) []wdm.PortWave {
	g.stamp++
	out := make([]wdm.PortWave, 0, want)
	for try := 0; try < 8*want && len(out) < want; try++ {
		p := g.rng.Intn(g.spec.N)
		slot := wdm.PortWave{Port: wdm.Port(p), Wave: w}
		if g.mark[p] == g.stamp || g.dstBusy[slot.Index(g.spec.K)] {
			continue
		}
		g.mark[p] = g.stamp
		out = append(out, slot)
	}
	return out
}

func (g *Generator) open(src wdm.PortWave, dests []wdm.PortWave) Op {
	s := &genSession{wave: src.Wave, src: src.Index(g.spec.K)}
	g.srcBusy[s.src] = true
	for _, d := range dests {
		i := d.Index(g.spec.K)
		g.dstBusy[i] = true
		s.dests = append(s.dests, i)
	}
	g.busy += len(dests)
	id := g.next
	g.next++
	g.sess[id] = s
	g.live = append(g.live, id)
	return Op{Kind: OpConnect, Sess: id, Conn: wdm.Connection{Source: src, Dests: dests}}
}

// branch grows a random live session by 1..BranchMax free slots on its
// wavelength. A session never grows past twice MaxFanout, which keeps
// per-op cost stationary over a long stream.
func (g *Generator) branch() (Op, bool) {
	id := g.live[g.rng.Intn(len(g.live))]
	s := g.sess[id]
	room := 2*g.spec.MaxFanout - len(s.dests)
	if room <= 0 {
		return Op{}, false
	}
	want := 1 + g.rng.Intn(g.spec.BranchMax)
	if want > room {
		want = room
	}
	// A free slot on the session's wavelength is never on one of its
	// own ports (those slots are busy with it), so ports stay distinct.
	dests := g.freeDests(s.wave, want)
	if len(dests) == 0 {
		return Op{}, false
	}
	for _, d := range dests {
		i := d.Index(g.spec.K)
		g.dstBusy[i] = true
		s.dests = append(s.dests, i)
	}
	g.busy += len(dests)
	return Op{Kind: OpBranch, Sess: id, Conn: wdm.Connection{Dests: dests}}, true
}

// disconnect tears down the live session at position i of the live list.
func (g *Generator) disconnect(i int) Op {
	id := g.live[i]
	last := len(g.live) - 1
	g.live[i] = g.live[last]
	g.live = g.live[:last]
	s := g.sess[id]
	delete(g.sess, id)
	g.srcBusy[s.src] = false
	for _, d := range s.dests {
		g.dstBusy[d] = false
	}
	g.busy -= len(s.dests)
	return Op{Kind: OpDisconnect, Sess: id}
}

// String names the spec for logs.
func (s StreamSpec) String() string {
	if s.Unicast {
		return fmt.Sprintf("N=%d k=%d r=%d unicast cycles", s.N, s.K, s.R)
	}
	return fmt.Sprintf("N=%d k=%d r=%d fanout 1..%d busy %.0f%%", s.N, s.K, s.R, s.MaxFanout, 100*s.Busy)
}
