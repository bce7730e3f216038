// Package cli holds the topology-builder shared by the physdep and
// topogen commands: one flag vocabulary, one constructor, independently
// testable.
package cli

import (
	"physdep/internal/interchange"
	"physdep/internal/physerr"
	"physdep/internal/topology"
	"physdep/internal/units"
)

// TopoParams is the union of generator knobs the CLIs expose. Not every
// field applies to every family; BuildTopology documents the mapping.
// The json tags double as the daemon's topology-spec wire format
// (internal/serve "topo" objects), mirroring the flag names, so a spec
// that works as physdep flags works as daemon JSON.
type TopoParams struct {
	Name   string     `json:"name"`             // topology family, or "file"
	K      int        `json:"k,omitempty"`      // fat-tree K / fatclique Kf / butterfly dims
	N      int        `json:"n,omitempty"`      // jellyfish N / leaf count / butterfly C / flatrandom N
	Radix  int        `json:"radix,omitempty"`  // switch radix
	Net    int        `json:"net,omitempty"`    // network ports per ToR (jellyfish R, leaf uplinks, flatrandom R)
	D      int        `json:"d,omitempty"`      // xpander D / fatclique Ks / vl2 DA
	Lift   int        `json:"lift,omitempty"`   // xpander lift / fatclique Kb / vl2 DI
	Q      int        `json:"q,omitempty"`      // slim fly q
	Spines int        `json:"spines,omitempty"` // leaf-spine spine count
	Rate   units.Gbps `json:"rate,omitempty"`
	Seed   uint64     `json:"seed,omitempty"`
	// File names an interchange document (internal/interchange) to load
	// instead of generating: the "file" family. On the CLIs it is a
	// filesystem path; daemon specs instead reference a previously
	// uploaded document by content digest ("sha256:<hex>", from POST
	// /v1/documents), so every cache key derived from the spec is a
	// function of the document bytes and a cached result can never
	// outlive the document it was computed from.
	File string `json:"file,omitempty"`
}

// Families lists the accepted -topo values. "file" is the pseudo-family
// that loads an interchange document named by the file spec field.
func Families() []string {
	return []string{"fattree", "leafspine", "jellyfish", "xpander",
		"flatbutterfly", "fatclique", "slimfly", "vl2", "flatrandom", "file"}
}

// BuildTopology constructs the requested family from the shared
// parameter set.
func BuildTopology(p TopoParams) (*topology.Topology, error) {
	switch p.Name {
	case "fattree":
		return topology.FatTree(topology.FatTreeConfig{K: p.K, Rate: p.Rate})
	case "leafspine":
		if p.Spines <= 0 {
			return nil, physerr.OutOfRange("cli: leafspine needs -spines > 0")
		}
		// The spine radix is the uplink fan-in N·Net spread over Spines
		// switches; a non-divisible split used to truncate silently,
		// building a fabric that stranded N·Net mod Spines uplinks. The
		// factors are pre-bounded by the switch cap before multiplying so
		// the product cannot overflow; anything larger falls through to
		// LeafSpineConfig.Validate, which rejects it with the same kind.
		if p.N > 0 && p.Net > 0 &&
			p.N <= topology.MaxSwitches && p.Net <= topology.MaxSwitches &&
			p.N*p.Net%p.Spines != 0 {
			return nil, physerr.OutOfRange(
				"cli: leafspine spines %d does not divide n*net = %d*%d = %d uplinks",
				p.Spines, p.N, p.Net, p.N*p.Net)
		}
		return topology.LeafSpine(topology.LeafSpineConfig{
			Leaves: p.N, Spines: p.Spines, UplinksPerTor: p.Net,
			ServerPorts: p.Radix - p.Net, LeafRadix: p.Radix,
			SpineRadix: p.N * p.Net / p.Spines, Rate: p.Rate})
	case "jellyfish":
		return topology.Jellyfish(topology.JellyfishConfig{
			N: p.N, K: p.Radix, R: p.Net, Rate: p.Rate, Seed: p.Seed})
	case "xpander":
		return topology.Xpander(topology.XpanderConfig{
			D: p.D, Lift: p.Lift, ServerPorts: p.Radix - p.D, Rate: p.Rate, Seed: p.Seed})
	case "flatbutterfly":
		return topology.FlattenedButterfly(topology.FlattenedButterflyConfig{
			C: p.N, Dims: p.K, ServerPorts: p.Radix, Rate: p.Rate})
	case "fatclique":
		return topology.FatClique(topology.FatCliqueConfig{
			Ks: p.D, Kb: p.Lift, Kf: p.K, ServerPorts: p.Radix, Rate: p.Rate})
	case "slimfly":
		return topology.SlimFly(topology.SlimFlyConfig{Q: p.Q, ServerPorts: p.Radix, Rate: p.Rate})
	case "vl2":
		return topology.VL2(topology.VL2Config{DA: p.D, DI: p.Lift, ServerPorts: p.Radix, Rate: p.Rate})
	case "flatrandom":
		return topology.FlatRandom(topology.FlatRandomConfig{
			N: p.N, K: p.Radix, R: p.Net, Rate: p.Rate, Seed: p.Seed})
	case "file":
		if p.File == "" {
			return nil, physerr.OutOfRange("cli: family %q needs a document path in the file field", p.Name)
		}
		data, err := interchange.ReadDocFile(p.File)
		if err != nil {
			return nil, err
		}
		t, _, err := interchange.Load(data)
		return t, err
	}
	// OutOfRange so the daemon maps a bad family to 422, like every
	// other invalid-spec error out of the topology constructors.
	return nil, physerr.OutOfRange("cli: unknown topology %q (families: %v)", p.Name, Families())
}
