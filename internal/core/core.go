// Package core is the public face of the library: it builds any of the
// paper's nonblocking WDM multicast switching networks behind one Network
// interface and selects cost-minimal configurations.
//
// The paper's design space has three axes:
//
//   - multicast model: MSW, MSDW or MAW (what wavelength freedom
//     connections get — Section 2.1);
//   - architecture: a single crossbar (Section 2.3) or a three-stage
//     network (Section 3);
//   - for three-stage networks, the construction: MSW-dominant or
//     MAW-dominant (Section 3.1), plus the module split r and middle
//     count m.
//
// core.New builds one point of that space; core.Design searches it for
// the cheapest nonblocking configuration of a requested size and model.
package core

import (
	"fmt"
	"math/big"

	"repro/internal/capacity"
	"repro/internal/crossbar"
	"repro/internal/multistage"
	"repro/internal/wdm"
)

// Architecture selects between the paper's two families of designs.
type Architecture int

const (
	// Crossbar is the single-stage design of Section 2.3 (Figs. 4-7).
	Crossbar Architecture = iota
	// ThreeStage is the multistage design of Section 3 (Fig. 8).
	ThreeStage
)

func (a Architecture) String() string {
	switch a {
	case Crossbar:
		return "crossbar"
	case ThreeStage:
		return "three-stage"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Spec describes a network to build.
type Spec struct {
	N, K         int
	Model        wdm.Model
	Architecture Architecture

	// Three-stage parameters (ignored for Crossbar). R must divide N;
	// zero M and X default to the sufficient nonblocking bound; Depth 0
	// or 3 is the classic three-stage network, 5/7/... recurse.
	R, M, X      int
	Depth        int
	Construction multistage.Construction
	Strategy     multistage.Strategy
	WavePick     multistage.WavePick

	// Lite skips optical verification: a crossbar is built without its
	// gate-level fabric, and a three-stage network's Verify does not
	// build the gate-level model of its modules. Routing behaviour is
	// the same — for large sweeps.
	Lite bool
}

// Network is the uniform interface over both architectures.
type Network interface {
	// Add routes a multicast connection, returning its id.
	Add(c wdm.Connection) (int, error)
	// Release tears down a connection by id.
	Release(id int) error
	// Verify self-checks the network's current state end to end.
	Verify() error
	// Cost reports the hardware counts.
	Cost() crossbar.Cost
	// Shape reports the external N x N k-wavelength shape.
	Shape() wdm.Shape
	// Model reports the multicast model.
	Model() wdm.Model
	// Len reports the number of live connections.
	Len() int
	// Reset releases all live connections.
	Reset()
}

// New builds the network described by the spec.
func New(s Spec) (Network, error) {
	if s.N <= 0 || s.K <= 0 {
		return nil, fmt.Errorf("core: N=%d k=%d must be positive", s.N, s.K)
	}
	switch s.Architecture {
	case Crossbar:
		sh := wdm.Shape{In: s.N, Out: s.N, K: s.K}
		if s.Lite {
			return &crossbarNet{crossbar.NewLite(s.Model, sh)}, nil
		}
		return &crossbarNet{crossbar.NewShape(s.Model, sh)}, nil
	case ThreeStage:
		net, err := multistage.New(multistage.Params{
			N: s.N, K: s.K, R: s.R, M: s.M, X: s.X, Depth: s.Depth,
			Model: s.Model, Construction: s.Construction,
			Strategy: s.Strategy, WavePick: s.WavePick, Lite: s.Lite,
		})
		if err != nil {
			return nil, err
		}
		return &multistageNet{net}, nil
	default:
		return nil, fmt.Errorf("core: unknown architecture %v", s.Architecture)
	}
}

// crossbarNet adapts crossbar.Switch to the Network interface.
type crossbarNet struct{ *crossbar.Switch }

func (c *crossbarNet) Verify() error {
	if c.Switch.Lite() {
		return nil // nothing to check optically; bookkeeping is exact
	}
	_, err := c.Switch.Verify()
	return err
}

// multistageNet adapts multistage.Network.
type multistageNet struct{ *multistage.Network }

func (m *multistageNet) Model() wdm.Model { return m.Network.Params().Model }

// IsBlocked reports whether an Add error is a blocking event (only
// three-stage networks can block; crossbars never do).
func IsBlocked(err error) bool { return multistage.IsBlocked(err) }

// FullCapacity and AnyCapacity return the network's multicast capacity
// under its model (Lemmas 1-3). Capacity depends only on N, k and the
// model — a nonblocking multistage network realizes the same assignments
// as the crossbar (Section 3.1).
func FullCapacity(s Spec) *big.Int { return capacity.Full(s.Model, int64(s.N), int64(s.K)) }
func AnyCapacity(s Spec) *big.Int  { return capacity.Any(s.Model, int64(s.N), int64(s.K)) }
