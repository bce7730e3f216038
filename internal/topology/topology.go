// Package topology builds the datacenter network topologies that the
// physical-deployability debate is about: folded-Clos fat-trees,
// leaf–spine, VL2, the expander family (Jellyfish, Xpander, Slim Fly),
// flattened butterfly, FatClique, and Jupiter-style aggregation-block
// fabrics with either spine blocks or OCS direct-connect.
//
// A Topology is a graph whose nodes are switches (servers are implicit:
// each ToR records how many server-facing ports it reserves), annotated
// with enough physical detail — role, radix, line rate — for the
// placement, cabling, and cost layers to do their work.
package topology

import (
	"context"
	"fmt"

	"physdep/internal/graph"
	"physdep/internal/units"
)

// Role classifies a switch's tier. Placement and cabling use roles to
// group switches into racks and to decide which links are intra-rack.
type Role int

const (
	RoleToR Role = iota
	RoleAgg
	RoleSpine
	RoleCore
	RoleIntermediate // VL2's intermediate tier / Jupiter transit blocks
)

var roleNames = [...]string{"tor", "agg", "spine", "core", "intermediate"}

func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// RoleFromString parses the string form produced by Role.String. It is
// the inverse used by the interchange loader; ok is false for any string
// that is not exactly one of the role names.
func RoleFromString(s string) (Role, bool) {
	for i, name := range roleNames {
		if s == name {
			return Role(i), true
		}
	}
	return 0, false
}

// Node is one switch.
type Node struct {
	ID          int
	Role        Role
	Radix       int        // total ports on the switch
	Rate        units.Gbps // per-port line rate
	ServerPorts int        // ports reserved for servers (ToRs only)
	Pod         int        // pod / block index, -1 if not applicable
	Label       string
}

// Rewire records one live-link splice performed by an incremental add:
// the in-service link A–B was broken and both freed ports re-terminated
// on the new switch. A and B are exactly the in-service switches a crew
// must visit for this rewire — the ground truth the lifecycle layer
// aggregates into touched-switch counts (it used to reconstruct them by
// diffing per-switch neighbor fingerprints, which both cost an O(N) scan
// per add and missed fingerprint-colliding swaps).
type Rewire struct {
	A, B int
}

// Topology is a switch-level network graph plus per-switch metadata.
type Topology struct {
	*graph.Graph
	Name  string
	Nodes []Node
}

// NewTopology returns an empty named topology.
func NewTopology(name string) *Topology {
	return &Topology{Graph: graph.New(0), Name: name}
}

// AddSwitch appends a switch and returns its node ID.
func (t *Topology) AddSwitch(n Node) int {
	id := t.Graph.AddNode()
	n.ID = id
	t.Nodes = append(t.Nodes, n)
	return id
}

// Link connects two switches with a single cable of the lower of the two
// endpoint rates (you can't run a link faster than its slower port).
func (t *Topology) Link(u, v int) int {
	rate := t.Nodes[u].Rate
	if t.Nodes[v].Rate < rate {
		rate = t.Nodes[v].Rate
	}
	return t.Graph.AddEdge(u, v, float64(rate))
}

// CloneTopology deep-copies the topology (graph and node metadata) so
// failure experiments can remove links without touching the original.
func (t *Topology) CloneTopology() *Topology {
	return &Topology{
		Graph: t.Graph.Clone(),
		Name:  t.Name,
		Nodes: append([]Node(nil), t.Nodes...),
	}
}

// ToRs returns the IDs of all ToR switches in ascending order.
func (t *Topology) ToRs() []int {
	var out []int
	for _, n := range t.Nodes {
		if n.Role == RoleToR {
			out = append(out, n.ID)
		}
	}
	return out
}

// SwitchesByRole returns IDs of switches with the given role, ascending.
func (t *Topology) SwitchesByRole(r Role) []int {
	var out []int
	for _, n := range t.Nodes {
		if n.Role == r {
			out = append(out, n.ID)
		}
	}
	return out
}

// Servers returns the total number of server ports across all ToRs — the
// "equal server count" axis every cross-topology comparison normalizes on.
func (t *Topology) Servers() int {
	s := 0
	for _, n := range t.Nodes {
		s += n.ServerPorts
	}
	return s
}

// NumSwitches returns the switch count.
func (t *Topology) NumSwitches() int { return len(t.Nodes) }

// Validate checks structural invariants: every switch's used ports
// (network degree + server ports) fit its radix, edge endpoints exist, and
// the fabric is connected. Generators call this before returning.
func (t *Topology) Validate() error {
	for _, n := range t.Nodes {
		used := t.Degree(n.ID) + n.ServerPorts
		if used > n.Radix {
			return fmt.Errorf("topology %s: switch %d (%s %q) uses %d ports but radix is %d",
				t.Name, n.ID, n.Role, n.Label, used, n.Radix)
		}
	}
	if t.N > 0 && !t.Connected() {
		return fmt.Errorf("topology %s: fabric is not connected", t.Name)
	}
	return nil
}

// FreePorts returns the unused ports on switch id.
func (t *Topology) FreePorts(id int) int {
	n := t.Nodes[id]
	return n.Radix - t.Degree(id) - n.ServerPorts
}

// Stats bundles the abstract "goodness" numbers research papers report —
// the properties the paper says must be weighed against physical cost.
type Stats struct {
	Switches  int     `json:"switches"`
	Links     int     `json:"links"`
	Servers   int     `json:"servers"`
	ToRDiam   int     `json:"tor_diameter"`        // diameter over ToR pairs (lower bound when sampled)
	ToRMean   float64 `json:"tor_mean_hops"`       // mean ToR-to-ToR hop count
	BisectGB  float64 `json:"bisection_gbps"`      // heuristic bisection capacity (Gbps)
	Expansion float64 `json:"expansion,omitempty"` // spectral gap estimate, if computed (else 0)
	// Path-stat provenance: PathsExact reports whether the ToR sweep was
	// exhaustive (every fabric at or under graph.DefaultExhaustiveBelow
	// ToRs — the whole classic experiment band — stays exact).
	// PathSources is the number of BFS sources swept, and ToRMeanCI the
	// sampled estimator's 95% half-width on ToRMean (0 when exact). See
	// DESIGN.md §11 for the estimator contract. The json tags are the
	// daemon's /v1/stats wire names.
	PathsExact  bool    `json:"paths_exact"`
	PathSources int     `json:"path_sources"`
	ToRMeanCI   float64 `json:"tor_mean_ci"`
}

// statsSampleSeed fixes the BFS source sample of every BasicStatsCtx call:
// stats are a property of the fabric, so two calls on the same topology
// must agree — the seed is part of the estimator's identity, not a knob.
const statsSampleSeed uint64 = 0x70617468 // "path"

// BasicStatsCtx computes switch/link/server counts and ToR path
// statistics. Bisection and expansion are left to callers because they
// need a PRNG.
//
// Path stats come from graph.AllPairsStatsSampledCtx under a fixed seed:
// exhaustive (and byte-identical to the historical sweep) up to
// graph.DefaultExhaustiveBelow ToRs, a bounded-error sample above — which
// is what lets the E-scale band evaluate 100k-switch fabrics. The Stats
// provenance fields say which one happened.
//
// ctx is threaded into the all-pairs ToR sweep, the only long-running
// part. A canceled call returns an error matching physerr.ErrCanceled.
func (t *Topology) BasicStatsCtx(ctx context.Context) (Stats, error) {
	ps, err := t.AllPairsStatsSampledCtx(ctx, t.ToRs(), graph.SampleSpec{Seed: statsSampleSeed})
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Switches:    t.NumSwitches(),
		Links:       t.NumEdges(),
		Servers:     t.Servers(),
		ToRDiam:     ps.Diameter,
		ToRMean:     ps.MeanHops,
		PathsExact:  ps.Exact,
		PathSources: ps.Sources,
		ToRMeanCI:   ps.MeanHopsCI,
	}, nil
}
