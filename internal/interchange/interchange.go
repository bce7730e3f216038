// Package interchange defines physdep's topology+floorplan document
// format: a versioned JSON encoding that lets fabric designs flow in and
// out of the evaluator. A document is data, not a switch arm — any
// consumer (the CLIs, the daemon, external tooling) that can name a file
// or a byte slice can evaluate a fabric, whether or not a generator for
// it exists. That is the permanent fix for the "a family exists but the
// boundary can't name it" class of bug.
//
// The format is deliberately boring: a {format, version} header (same
// discipline as the daemon's cache snapshots in internal/serve/persist.go),
// the topology name, every switch with its physical metadata (role,
// radix, line rate, server ports, pod, label), every live link with its
// capacity, optional hall geometry, and optional generator provenance.
//
// # Round-trip contract
//
// Emit → Load → evaluate is byte-identical to evaluating the original
// generator-built topology. Two properties make that true:
//
//   - Emit writes live edges in slot order, and loading re-adds them in
//     document order, so the live-edge sequence every slot-order kernel
//     iterates (cabling, bisection, max-flow) is identical.
//   - graph edge removal is order-preserving (graph.removeVal), so a
//     generator-built graph's per-node incidence lists are ascending by
//     edge ID regardless of its splice history — exactly what reloading
//     reproduces. CSR rows, and therefore every order-sensitive float
//     accumulation (SpectralGap's matvec), match to the last bit.
//
// # Validation
//
// Load is strict: unknown fields, trailing data, a foreign or
// future-versioned header, out-of-range sizes (the topology.MaxSwitches
// cap and the MaxLinks link cap), non-canonical node IDs, unknown roles,
// self-edges, and negative quantities are all rejected with errors
// wrapping physerr.ErrOutOfRange — the daemon maps them to 422 like any
// other invalid spec. Parallel edges are legal (they are trunk lanes;
// graph.Graph is a multigraph by design) but remain subject to the
// port-fit check: a duplicated edge that overruns its endpoint's radix
// is rejected. After structural checks the loaded topology must pass
// topology.Validate (port fit, connectivity), so nothing downstream ever
// sees a fabric a generator could not have produced.
package interchange

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"physdep/internal/atomicfile"
	"physdep/internal/floorplan"
	"physdep/internal/physerr"
	"physdep/internal/topology"
	"physdep/internal/units"
)

const (
	// Format and Version identify the document type. Loaders refuse
	// anything else outright: half-understanding a future document is
	// worse than rejecting it.
	Format  = "physdep-topology"
	Version = 1

	// MaxDocBytes bounds how much LoadFileCtx will read: documents are a few
	// dozen bytes per switch and per link, so even a MaxSwitches-sized
	// fabric fits comfortably, and a runaway or hostile file fails fast
	// instead of exhausting memory.
	MaxDocBytes = 64 << 20

	// MaxLinks bounds a document's edge count, the link-side twin of
	// topology.MaxSwitches (8 network ports per switch at the switch cap —
	// larger radixes are fine at realistic scales, the product just may
	// not exceed this).
	MaxLinks = 8 * topology.MaxSwitches
)

// Document is the top-level interchange object.
type Document struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Generator records where the fabric came from (optional, free-form
	// provenance: it is carried, never interpreted).
	Generator *Provenance `json:"generator,omitempty"`
	// Hall optionally pins the machine-hall geometry the fabric was (or
	// should be) evaluated against.
	Hall  *Hall  `json:"hall,omitempty"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// Provenance says which tool and generator family produced the document.
// Purely informational: loading never consults it.
type Provenance struct {
	Tool   string `json:"tool,omitempty"`   // e.g. "topogen"
	Family string `json:"family,omitempty"` // e.g. "jellyfish"
	Spec   string `json:"spec,omitempty"`   // canonical generator spec (topogen emits cli.TopoParams JSON)
}

// Hall is the optional floorplan geometry: the rows × slots grid that the
// physdep CLI and daemon expose. All remaining hall parameters (pitches,
// tray capacities, door width) stay at library defaults —
// floorplan.DefaultHall(Rows, Slots) — matching the knob surface of the
// rest of the system.
type Hall struct {
	Rows  int `json:"rows"`
	Slots int `json:"slots"`
}

// Node is one switch. ID must equal the node's index in the Nodes slice
// (the canonical form keeps documents diffable and loading allocation-
// exact); Pod is omitted when the generator recorded "not applicable"
// (-1).
type Node struct {
	ID          int     `json:"id"`
	Role        string  `json:"role"` // topology.Role string form: tor|agg|spine|core|intermediate
	Radix       int     `json:"radix"`
	RateGbps    float64 `json:"rate_gbps,omitempty"`
	ServerPorts int     `json:"server_ports,omitempty"`
	Pod         *int    `json:"pod,omitempty"`
	Label       string  `json:"label,omitempty"`
}

// Edge is one live link. Parallel a–b edges are distinct trunk lanes;
// self-edges (a == b) are invalid — no switch fabric cables a switch to
// itself, and a self-loop would silently consume two ports.
type Edge struct {
	A       int     `json:"a"`
	B       int     `json:"b"`
	CapGbps float64 `json:"cap_gbps,omitempty"`
}

// FromTopology distills t into a Document: every switch in ID order,
// every live edge in slot order (tombstones from splice-based generators
// are compacted away), capacities and metadata verbatim. The caller may
// attach Hall and Generator before emitting.
func FromTopology(t *topology.Topology) *Document {
	d := &Document{
		Format:  Format,
		Version: Version,
		Name:    t.Name,
		Nodes:   make([]Node, 0, len(t.Nodes)),
	}
	for _, n := range t.Nodes {
		dn := Node{
			ID:          n.ID,
			Role:        n.Role.String(),
			Radix:       n.Radix,
			RateGbps:    float64(n.Rate),
			ServerPorts: n.ServerPorts,
			Label:       n.Label,
		}
		if n.Pod >= 0 {
			pod := n.Pod
			dn.Pod = &pod
		}
		d.Nodes = append(d.Nodes, dn)
	}
	d.Edges = make([]Edge, 0, t.NumEdges())
	for _, e := range t.Edges {
		if e.U == -1 {
			continue
		}
		d.Edges = append(d.Edges, Edge{A: e.U, B: e.V, CapGbps: e.Cap})
	}
	return d
}

// Encode renders the document as indented JSON with a trailing newline.
// The encoding is canonical: struct fields emit in declaration order and
// float64 round-trips exactly, so equal documents produce equal bytes.
func (d *Document) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Emit writes t to w as a document. For provenance or hall geometry,
// build the Document with FromTopology and encode it yourself.
func Emit(w io.Writer, t *topology.Topology) error {
	b, err := FromTopology(t).Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EmitFile writes d to path atomically (atomicfile.Write), so a crash
// mid-write can never leave a torn document where a good one was.
func EmitFile(path string, d *Document) error {
	b, err := d.Encode()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// Decode parses data as a document, strictly: unknown fields and
// trailing bytes are errors (a typoed field must not silently become a
// default), and the header must name exactly this format and version.
// Decode performs the full structural validation; the returned document
// is ready for Topology.
func Decode(data []byte) (*Document, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Document
	if err := dec.Decode(&d); err != nil {
		return nil, physerr.OutOfRange("interchange: bad document: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, physerr.OutOfRange("interchange: trailing data after document")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks every declarative rule of the format. All violations
// wrap physerr.ErrOutOfRange.
func (d *Document) Validate() error {
	if d.Format != Format || d.Version != Version {
		return physerr.OutOfRange("interchange: document is %q version %d, want %q version %d",
			d.Format, d.Version, Format, Version)
	}
	if d.Name == "" {
		return physerr.OutOfRange("interchange: document has no topology name")
	}
	n := len(d.Nodes)
	if n < 1 {
		return physerr.OutOfRange("interchange: document yields 0 switches")
	}
	if n > topology.MaxSwitches {
		return physerr.OutOfRange("interchange: document yields %d switches, more than the %d cap",
			n, topology.MaxSwitches)
	}
	if len(d.Edges) > MaxLinks {
		return physerr.OutOfRange("interchange: document yields %d links, more than the %d cap",
			len(d.Edges), MaxLinks)
	}
	for i, dn := range d.Nodes {
		if dn.ID != i {
			return physerr.OutOfRange("interchange: node %d has id %d; ids must be 0..n-1 in order", i, dn.ID)
		}
		if _, ok := topology.RoleFromString(dn.Role); !ok {
			return physerr.OutOfRange("interchange: node %d has unknown role %q", i, dn.Role)
		}
		if dn.Radix < 0 || dn.ServerPorts < 0 {
			return physerr.OutOfRange("interchange: node %d has negative radix (%d) or server_ports (%d)",
				i, dn.Radix, dn.ServerPorts)
		}
		if dn.RateGbps < 0 {
			return physerr.OutOfRange("interchange: node %d has negative rate %v", i, dn.RateGbps)
		}
		if dn.Pod != nil && *dn.Pod < 0 {
			return physerr.OutOfRange("interchange: node %d has negative pod %d (omit the field for none)",
				i, *dn.Pod)
		}
	}
	for i, de := range d.Edges {
		if de.A < 0 || de.A >= n || de.B < 0 || de.B >= n {
			return physerr.OutOfRange("interchange: edge %d (%d–%d) endpoint out of range [0,%d)",
				i, de.A, de.B, n)
		}
		if de.A == de.B {
			return physerr.OutOfRange("interchange: edge %d is a self-edge on node %d", i, de.A)
		}
		if de.CapGbps < 0 {
			return physerr.OutOfRange("interchange: edge %d has negative capacity %v", i, de.CapGbps)
		}
	}
	if d.Hall != nil {
		if d.Hall.Rows < 1 || d.Hall.Slots < 1 {
			return physerr.OutOfRange("interchange: hall needs rows and slots >= 1 (got %d, %d)",
				d.Hall.Rows, d.Hall.Slots)
		}
		// Both factors are >= 1 and bounded by MaxRacks before the
		// product, so rows*slots cannot overflow.
		if d.Hall.Rows > floorplan.MaxRacks || d.Hall.Slots > floorplan.MaxRacks ||
			d.Hall.Rows*d.Hall.Slots > floorplan.MaxRacks {
			return physerr.OutOfRange("interchange: hall %d×%d exceeds the %d rack cap",
				d.Hall.Rows, d.Hall.Slots, floorplan.MaxRacks)
		}
	}
	return nil
}

// topologyCtx builds the fabric the document describes. The document
// must already have passed Validate (Decode guarantees it); the built
// topology additionally passes topology.Validate — port fit and
// connectivity — so a document claiming more links than its switches
// have ports, or describing a disconnected fabric, is rejected here.
//
// Cancellation is polled at coarse strides (every few thousand
// nodes/edges), so loading a fleet-scale document respects the caller's
// deadline without per-element overhead.
func (d *Document) topologyCtx(ctx context.Context) (*topology.Topology, error) {
	const stride = 8192
	poll := ctx.Done() != nil
	t := topology.NewTopology(d.Name)
	for i, dn := range d.Nodes {
		if poll && i%stride == 0 && ctx.Err() != nil {
			return nil, physerr.Canceled(ctx.Err())
		}
		role, _ := topology.RoleFromString(dn.Role) // validated by Decode
		pod := -1
		if dn.Pod != nil {
			pod = *dn.Pod
		}
		t.AddSwitch(topology.Node{
			Role:        role,
			Radix:       dn.Radix,
			Rate:        units.Gbps(dn.RateGbps),
			ServerPorts: dn.ServerPorts,
			Pod:         pod,
			Label:       dn.Label,
		})
	}
	for i, de := range d.Edges {
		if poll && i%stride == 0 && ctx.Err() != nil {
			return nil, physerr.Canceled(ctx.Err())
		}
		// AddEdge rather than Link: the document's capacity is
		// authoritative and round-trips exactly (Link would recompute the
		// min endpoint rate, which for generator-emitted documents is the
		// same number — but the document is the contract, not the rates).
		t.Graph.AddEdge(de.A, de.B, de.CapGbps)
	}
	if err := t.Validate(); err != nil {
		return nil, physerr.OutOfRange("interchange: %v", err)
	}
	return t, nil
}

// Load is LoadCtx under a context that never cancels.
func Load(data []byte) (*topology.Topology, *Document, error) {
	// ctx: perfbench calls this context-free name and pins its
	// signature; every caller with a context uses LoadCtx.
	return LoadCtx(context.Background(), data)
}

// LoadCtx decodes, validates, and builds in one step, returning both the
// topology and the document (for its hall geometry and provenance). A
// canceled load returns an error matching physerr.ErrCanceled.
func LoadCtx(ctx context.Context, data []byte) (*topology.Topology, *Document, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, physerr.Canceled(err)
	}
	d, err := Decode(data)
	if err != nil {
		return nil, nil, err
	}
	t, err := d.topologyCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	return t, d, nil
}

// LoadFileCtx reads and loads a document from path, refusing files larger
// than MaxDocBytes before reading them whole.
func LoadFileCtx(ctx context.Context, path string) (*topology.Topology, *Document, error) {
	data, err := ReadDocFile(path)
	if err != nil {
		return nil, nil, err
	}
	return LoadCtx(ctx, data)
}

// ReadDocFile reads a document file with the MaxDocBytes bound applied
// before any allocation. Exported for consumers (the daemon) that need
// the raw bytes — e.g. to content-address a document — without loading
// it twice.
func ReadDocFile(path string) ([]byte, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("interchange: %w", err)
	}
	defer fh.Close()
	if st, err := fh.Stat(); err == nil && st.Size() > MaxDocBytes {
		return nil, physerr.OutOfRange("interchange: %s is %d bytes, more than the %d cap",
			path, st.Size(), MaxDocBytes)
	}
	// LimitReader backstops the stat (pipes, races): one byte past the cap
	// turns into a rejection rather than an unbounded read.
	data, err := io.ReadAll(io.LimitReader(fh, MaxDocBytes+1))
	if err != nil {
		return nil, fmt.Errorf("interchange: reading %s: %w", path, err)
	}
	if len(data) > MaxDocBytes {
		return nil, physerr.OutOfRange("interchange: %s exceeds the %d byte cap", path, MaxDocBytes)
	}
	return data, nil
}
