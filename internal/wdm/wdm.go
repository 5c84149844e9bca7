// Package wdm defines the core domain vocabulary of a wavelength-division
// multiplexed (WDM) multicast switching network as modelled by Yang, Wang
// and Qiao: ports, wavelengths, multicast connections, multicast
// assignments, and the three multicast models (MSW, MSDW, MAW) together
// with their admissibility rules.
//
// An N x N k-wavelength network connects N input ports to N output ports;
// every port carries k wavelengths. A multicast connection occupies one
// wavelength at one input port (its source) and one wavelength at each of
// one or more output ports (its destinations). The three models differ
// only in which wavelengths a connection may legally combine:
//
//   - MSW  (Multicast with Same Wavelength): the source and every
//     destination use the same wavelength.
//   - MSDW (Multicast with Same Destination Wavelength): every destination
//     uses one common wavelength; the source may use a different one.
//   - MAW  (Multicast with Any Wavelength): the source and every
//     destination may each use a different wavelength.
package wdm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Wavelength identifies one of the k wavelengths on a fiber, 0-based.
// The paper writes lambda_1 ... lambda_k; we use 0 ... k-1.
type Wavelength int

// Port identifies an input or output port of the network, 0-based.
type Port int

// PortWave identifies a single wavelength slot at a specific port: the
// unit of resource an individual connection endpoint occupies. An N x N
// k-wavelength network has N*k input slots and N*k output slots.
type PortWave struct {
	Port Port
	Wave Wavelength
}

func (pw PortWave) String() string {
	return fmt.Sprintf("(p%d,λ%d)", pw.Port, pw.Wave)
}

// Index returns the canonical flat index of the slot in a network with k
// wavelengths per port: Port*k + Wave.
func (pw PortWave) Index(k int) int {
	return int(pw.Port)*k + int(pw.Wave)
}

// SlotFromIndex is the inverse of PortWave.Index.
func SlotFromIndex(idx, k int) PortWave {
	return PortWave{Port: Port(idx / k), Wave: Wavelength(idx % k)}
}

// Model selects one of the paper's three multicast models.
type Model int

const (
	// MSW is the Multicast-with-Same-Wavelength model.
	MSW Model = iota
	// MSDW is the Multicast-with-Same-Destination-Wavelength model.
	MSDW
	// MAW is the Multicast-with-Any-Wavelength model.
	MAW
)

// Models lists all three models in increasing order of strength
// (MSW < MSDW < MAW): every connection admissible under an earlier model
// is admissible under every later one.
var Models = []Model{MSW, MSDW, MAW}

func (m Model) String() string {
	switch m {
	case MSW:
		return "MSW"
	case MSDW:
		return "MSDW"
	case MAW:
		return "MAW"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel converts a case-insensitive model name to a Model.
func ParseModel(s string) (Model, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "MSW":
		return MSW, nil
	case "MSDW":
		return MSDW, nil
	case "MAW":
		return MAW, nil
	default:
		return 0, fmt.Errorf("wdm: unknown multicast model %q (want MSW, MSDW or MAW)", s)
	}
}

// Stronger reports whether model m admits every connection that model o
// admits (m is at least as strong as o). MSW < MSDW < MAW.
func (m Model) Stronger(o Model) bool { return m >= o }

// Connection is a single multicast connection: one source slot and a
// non-empty set of destination slots. A unicast connection is the special
// case of exactly one destination.
type Connection struct {
	Source PortWave
	Dests  []PortWave
}

// Fanout returns the number of destination slots.
func (c Connection) Fanout() int { return len(c.Dests) }

func (c Connection) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v ->", c.Source)
	for _, d := range c.Dests {
		fmt.Fprintf(&b, " %v", d)
	}
	return b.String()
}

// Clone returns a deep copy of the connection.
func (c Connection) Clone() Connection {
	return Connection{Source: c.Source, Dests: append([]PortWave(nil), c.Dests...)}
}

// Normalize sorts the destination slots into canonical (port, wave) order.
// It mutates and returns the receiver's copy.
func (c Connection) Normalize() Connection {
	c = c.Clone()
	slices.SortFunc(c.Dests, comparePortWave)
	return c
}

// comparePortWave orders slots by port, then wavelength.
func comparePortWave(a, b PortWave) int {
	if a.Port != b.Port {
		return cmp.Compare(a.Port, b.Port)
	}
	return cmp.Compare(a.Wave, b.Wave)
}

// Assignment is a set of multicast connections intended to be carried
// simultaneously. In an admissible ("multicast") assignment no two
// connections share a source slot and no two connections share a
// destination slot.
type Assignment []Connection

// Clone returns a deep copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for i, c := range a {
		out[i] = c.Clone()
	}
	return out
}

// TotalFanout returns the total number of destination slots across all
// connections in the assignment.
func (a Assignment) TotalFanout() int {
	total := 0
	for _, c := range a {
		total += c.Fanout()
	}
	return total
}

// IsFull reports whether the assignment is a full-multicast-assignment for
// an N x N k-wavelength network: every one of the N*k output slots is a
// destination of exactly one connection. (Admissibility guarantees "at
// most one"; fullness adds "at least one".)
func (a Assignment) IsFull(n, k int) bool {
	return a.TotalFanout() == n*k
}
