// Package backend defines the pluggable fabric-backend interface the
// serving plane routes through, and the registry of implementations.
//
// A Backend is one switching plane, and the interface holds only what
// its callers call on it: switchd routes sessions (Add / AddBranch /
// Release / Connection / Len), journals and recovers them (RouteRecord
// / Reinstall, also the cluster standby's apply path and wdmwal
// replay), migrates them around component failures (FailMiddle /
// RepairMiddle / FailedMiddles / RerouteAroundReport), traces route
// decisions (SetRouteObserver) and reports occupancy (Utilization,
// Params); wdmcost prices each backend (Cost), and wdmtrace and the
// ladder's backend rung read its outcome counts (Stats). Rejections
// explain themselves through the shared multistage BlockedError
// vocabulary. None of these callers names a concrete fabric type;
// introspection that only an example or a test needs stays on the
// concrete types.
//
// Four backends register at init:
//
//	msw   — three-stage Clos, MSW modules (paper's Theorem 1 bound)
//	maw   — three-stage Clos, MAW input/middle modules (Theorem 2 bound)
//	awg   — three-stage Clos with passive AWG middles (arXiv 1308.4477):
//	        wavelengths follow the grating law, conflicts surface as
//	        the stable wavelength_conflict code
//	mesh  — bidirectional WDM ring with light-hierarchy multicast under
//	        sparse splitting (arXiv 1012.0017/1012.0027): structural
//	        rejections surface as split_incapable
package backend

import (
	"fmt"
	"sort"

	"repro/internal/crossbar"
	"repro/internal/mesh"
	"repro/internal/multistage"
	"repro/internal/wdm"
)

// Backend is the routing interface every fabric implementation serves.
// Implementations are NOT safe for concurrent use; callers serialize
// access per plane (switchd holds one mutex per replica).
type Backend interface {
	// Routing plane.
	Add(c wdm.Connection) (int, error)
	AddBranch(id int, dests ...wdm.PortWave) error
	Release(id int) error

	// Durability plane: exact-replay route records.
	RouteRecord(id int) (multistage.RouteRecord, bool)
	Reinstall(rec multistage.RouteRecord) (int, error)

	// Introspection. Stats counts logical operations: each Add's
	// outcome (routed, or blocked) and each blocked AddBranch grow.
	// Re-routes inside AddBranch and RerouteAroundReport, and
	// Reinstall, count nothing.
	Connection(id int) (wdm.Connection, bool)
	Len() int
	Stats() (routed, blocked int64)
	Utilization() multistage.Utilization
	Params() multistage.Params
	Cost() crossbar.Cost
	SetRouteObserver(fn func(multistage.RouteStep))

	// Failure plane. "Middles" are whatever the backend's failure unit
	// is: middle-stage modules for the Clos constructions, ring nodes
	// for the mesh.
	FailMiddle(j int) error
	RepairMiddle(j int) error
	FailedMiddles() []int
	RerouteAroundReport(j int) ([]multistage.Migration, []int, error)
}

// Descriptor is a registered backend: its identity, its capability
// card (served at GET /v1/fabrics), and its constructors.
type Descriptor struct {
	// Name is the stable identifier used by -fabric, the durable meta,
	// and the API surface.
	Name string
	// Description is one sentence for humans.
	Description string
	// Bound describes the backend's own nonblocking sufficiency
	// condition, as a formula over its parameters.
	Bound string
	// Multicast describes how the backend realizes fanout.
	Multicast string
	// ErrorCodes lists the backend-specific stable block codes it can
	// attach to a BlockedError (beyond the generic blocked class).
	ErrorCodes []string
	// Normalize validates and defaults a parameter set for this backend
	// (including resolving M=0 to the backend's sufficient bound).
	Normalize func(p multistage.Params) (multistage.Params, error)
	// Sufficient returns the backend's sufficient provisioning level for
	// the (normalized) parameters: the middle-module count that makes
	// the Clos constructions nonblocking, the node count for the mesh
	// (its failure units are the ring nodes). The admission derater
	// compares the provisioned level against this reference.
	Sufficient func(p multistage.Params) int
	// New builds a fresh plane from (not necessarily normalized)
	// parameters.
	New func(p multistage.Params) (Backend, error)
}

var registry = map[string]Descriptor{}

// Register adds a backend descriptor. It panics on a duplicate or
// incomplete registration — registration is init-time wiring, not a
// runtime code path.
func Register(d Descriptor) {
	if d.Name == "" || d.Normalize == nil || d.Sufficient == nil || d.New == nil {
		panic("backend: incomplete descriptor")
	}
	if _, dup := registry[d.Name]; dup {
		panic("backend: duplicate registration of " + d.Name)
	}
	registry[d.Name] = d
}

// Get returns the descriptor for name. The error enumerates the valid
// names, so flag validation derives from the registry.
func Get(name string) (Descriptor, error) {
	d, ok := registry[name]
	if !ok {
		return Descriptor{}, fmt.Errorf("backend: unknown fabric backend %q (have %s)", name, namesList())
	}
	return d, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func namesList() string {
	names := Names()
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// All returns every registered descriptor, sorted by name.
func All() []Descriptor {
	out := make([]Descriptor, 0, len(registry))
	for _, name := range Names() {
		out = append(out, registry[name])
	}
	return out
}

// ForConstruction maps a Clos construction to its backend name — the
// back-compat bridge for durable metadata and flags written before
// backends existed, which recorded only the construction.
func ForConstruction(c multistage.Construction) string {
	switch c {
	case multistage.MAWDominant:
		return "maw"
	case multistage.AWGClos:
		return "awg"
	default:
		return "msw"
	}
}

// closDescriptor builds the descriptor shared by the three-stage Clos
// backends: the construction is pinned, everything else flows through
// multistage.
func closDescriptor(name string, c multistage.Construction, description, bound, multicast string, codes []string) Descriptor {
	return Descriptor{
		Name:        name,
		Description: description,
		Bound:       bound,
		Multicast:   multicast,
		ErrorCodes:  codes,
		Normalize: func(p multistage.Params) (multistage.Params, error) {
			p.Construction = c
			return p.Normalize()
		},
		Sufficient: func(p multistage.Params) int {
			m, _ := multistage.SufficientMinM(c, p.Model, p.N/p.R, p.R, p.K)
			return m
		},
		New: func(p multistage.Params) (Backend, error) {
			p.Construction = c
			return multistage.New(p)
		},
	}
}

func init() {
	Register(closDescriptor("msw", multistage.MSWDominant,
		"three-stage Clos, MSW (no-conversion) input and middle modules",
		"m > min over x of (n-1)(x + r^(1/x)) — Theorem 1",
		"middle-stage splitters, up to x destination modules per middle",
		nil))
	Register(closDescriptor("maw", multistage.MAWDominant,
		"three-stage Clos, MAW (full-conversion) input and middle modules",
		"m > min over x of floor((nk-1)x/k) + (n-1)r^(1/x) — Theorem 2",
		"middle-stage splitters with per-leg wavelength conversion",
		nil))
	// The AWG grating law fixes each session's wavelength to its
	// (dest−src) class, so delivery needs converting (MAW) output
	// modules: the model is as much a property of this backend as the
	// construction, and the descriptor pins both.
	awg := closDescriptor("awg", multistage.AWGClos,
		"three-stage Clos with passive arrayed-waveguide-grating middles; wavelengths follow the grating law λ=(dest-src) mod k",
		"m >= (nk-1)(ceil(r/k)+1) + r, with x = r (one middle per destination module)",
		"input-stage splitting only: each destination module takes its own middle on its class wavelength",
		[]string{multistage.CodeWavelengthConflict})
	awgNormalize, awgNew := awg.Normalize, awg.New
	awg.Normalize = func(p multistage.Params) (multistage.Params, error) {
		p.Model = wdm.MAW
		return awgNormalize(p)
	}
	awg.New = func(p multistage.Params) (Backend, error) {
		p.Model = wdm.MAW
		return awgNew(p)
	}
	Register(awg)
	Register(Descriptor{
		Name:        "mesh",
		Description: "bidirectional WDM ring with light-hierarchy multicast under sparse splitting (MC node every R-th position)",
		Bound:       "any k individually-routable sessions route (one wavelength per session, k wavelengths per fiber direction)",
		Multicast:   "drop-and-continue at splitter (MC) nodes plus reverse-direction spurs; multicast-incapable nodes never branch",
		ErrorCodes:  []string{multistage.CodeSplitIncapable},
		Normalize:   mesh.Normalize,
		Sufficient: func(p multistage.Params) int {
			// The mesh's failure units are the ring nodes: full service
			// means all N of them (M is pinned to N by Normalize).
			return p.N
		},
		New: func(p multistage.Params) (Backend, error) {
			return mesh.New(p)
		},
	})
}
