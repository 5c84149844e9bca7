package main

import (
	"fmt"
	"time"

	"repro/internal/wdm"
)

// outcome is what one op did at one rung. Every rung of a ladder must
// produce the same outcome sequence for the same stream.
type outcome uint8

const (
	outOK outcome = iota
	outBlocked
	outSkipped // the op's session was never routed (its connect blocked)
	outError
)

// counts tallies what the caller saw, for comparison with the server's
// own counters.
type counts struct {
	attempted, errors, blocked, offered int64
	connectOK, branchOK, disconnectOK   int64
}

// replayer drives one layer with a stream, keeping its own mirror of
// every routed session: the id the layer handed out and the connection
// it must report on a read.
type replayer struct {
	l     layer
	ids   map[int]uint64
	conns map[int]wdm.Connection
	c     counts
	// firstErr keeps the first unexpected failure for the report.
	firstErr error
}

func newReplayer(l layer) *replayer {
	return &replayer{l: l, ids: make(map[int]uint64), conns: make(map[int]wdm.Connection)}
}

// do applies op and returns its outcome and the layer's timed result.
// Ops on a session whose connect blocked are skipped, not sent: the
// stream's own bookkeeping treated that session as live, so skipping
// keeps every later request admissible.
func (r *replayer) do(op *Op) (outcome, result) {
	var res result
	switch op.Kind {
	case OpConnect:
		r.c.offered++
		res = r.l.connect(op.Conn.Clone())
		if res.err == nil {
			r.ids[op.Sess] = res.id
			r.conns[op.Sess] = op.Conn.Normalize()
			r.c.connectOK++
		}
	case OpBranch:
		id, ok := r.ids[op.Sess]
		if !ok {
			return outSkipped, res
		}
		r.c.offered++
		res = r.l.branch(id, op.Conn.Dests)
		if res.err == nil {
			grown := r.conns[op.Sess].Clone()
			grown.Dests = append(grown.Dests, op.Conn.Dests...)
			r.conns[op.Sess] = grown.Normalize()
			r.c.branchOK++
		}
	case OpRead:
		id, ok := r.ids[op.Sess]
		if !ok {
			return outSkipped, res
		}
		res = r.l.read(id)
		if want := wdm.FormatConnection(r.conns[op.Sess]); res.err == nil && res.conn != want {
			res.err = fmt.Errorf("read of session %d returned %q, want %q", op.Sess, res.conn, want)
		}
	case OpDisconnect:
		id, ok := r.ids[op.Sess]
		if !ok {
			return outSkipped, res
		}
		res = r.l.disconnect(id)
		if res.err == nil {
			delete(r.ids, op.Sess)
			delete(r.conns, op.Sess)
			r.c.disconnectOK++
		}
	}
	r.c.attempted++
	switch {
	case res.err == nil:
		return outOK, res
	case res.blocked:
		r.c.blocked++
		return outBlocked, res
	default:
		r.c.errors++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s of session %d: %w", op.Kind, op.Sess, res.err)
		}
		return outError, res
	}
}

// teardown disconnects every session still live, untimed.
func (r *replayer) teardown() {
	for sess := range r.ids {
		r.do(&Op{Kind: OpDisconnect, Sess: sess})
	}
}

// timedOps runs ops at r and returns each op's outcome, per-kind
// latency histograms, and the loop's wall time. With spans non-nil it
// records one span per attempted op under the given layer name.
func timedOps(r *replayer, ops []Op, layerName string, spans *spanLog) ([]outcome, [numOpKinds]*hist, time.Duration) {
	var hs [numOpKinds]*hist
	for k := range hs {
		hs[k] = newHist()
	}
	outs := make([]outcome, len(ops))
	t0 := time.Now()
	for i := range ops {
		out, res := r.do(&ops[i])
		outs[i] = out
		if out == outSkipped {
			continue
		}
		hs[ops[i].Kind].add(res.d)
		if spans != nil {
			spans.add(i, layerName, ops[i].Kind, res.d)
		}
	}
	return outs, hs, time.Since(t0)
}
