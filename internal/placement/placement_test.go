package placement

import (
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
	"physdep/internal/topology"
	"physdep/internal/units"
)

func smallFatTree(t *testing.T) *topology.Topology {
	t.Helper()
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func newFloor(t *testing.T, rows, slots int) *floorplan.Floorplan {
	t.Helper()
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(rows, slots))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGreedyPlacesEverySwitch(t *testing.T) {
	ft := smallFatTree(t)
	f := newFloor(t, 3, 10)
	p, err := Greedy(ft, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 8 ToRs → 8 ToR racks; 12 non-ToR switches / 8 per rack → 2
	// network racks.
	if got := p.NumRacks(); got != 10 {
		t.Errorf("racks = %d, want 10", got)
	}
	slotSeen := map[int]bool{}
	for r := 0; r < p.NumRacks(); r++ {
		s := p.SlotOfRack[r]
		if slotSeen[s] {
			t.Errorf("slot %d used by two racks", s)
		}
		slotSeen[s] = true
	}
	for sw := 0; sw < ft.N; sw++ {
		loc := p.LocOfSwitch(sw)
		if loc.Row < 0 || loc.Row >= 3 || loc.Slot < 0 || loc.Slot >= 10 {
			t.Errorf("switch %d placed out of hall: %v", sw, loc)
		}
	}
}

func TestGreedyFailsWhenHallTooSmall(t *testing.T) {
	ft := smallFatTree(t)
	f := newFloor(t, 1, 5)
	if _, err := Greedy(ft, f, Config{}); err == nil {
		t.Error("placement into undersized hall succeeded")
	}
}

func TestGreedyPodsContiguous(t *testing.T) {
	ft := smallFatTree(t)
	f := newFloor(t, 3, 10)
	p, err := Greedy(ft, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// ToRs of the same pod should be in adjacent slots (row-major order).
	slotsOfPod := map[int][]int{}
	for _, sw := range ft.ToRs() {
		pod := ft.Nodes[sw].Pod
		slotsOfPod[pod] = append(slotsOfPod[pod], p.SlotOfRack[p.RackOfSwitch[sw]])
	}
	for pod, slots := range slotsOfPod {
		min, max := slots[0], slots[0]
		for _, s := range slots {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		// Pod of 2 ToRs should span at most a few slots (network racks may
		// interleave); allow a gap of the 2 network racks.
		if max-min > len(slots)+2 {
			t.Errorf("pod %d spread across slots %v", pod, slots)
		}
	}
}

func TestDemandsMatchEdges(t *testing.T) {
	ft := smallFatTree(t)
	f := newFloor(t, 3, 10)
	p, err := Greedy(ft, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ds := p.Demands(nil)
	if len(ds) != ft.NumEdges() {
		t.Fatalf("demands = %d, want %d", len(ds), ft.NumEdges())
	}
	for _, d := range ds {
		if d.Rate != 100 {
			t.Errorf("demand %d rate = %v, want 100", d.ID, d.Rate)
		}
		if d.ExtraLoss != 0 {
			t.Errorf("demand %d loss = %v, want 0", d.ID, d.ExtraLoss)
		}
	}
	// With a loss function, losses flow through.
	ds = p.Demands(func(edgeID int) units.DB { return 0.5 })
	for _, d := range ds {
		if d.ExtraLoss != 0.5 {
			t.Errorf("demand %d loss = %v, want 0.5", d.ID, d.ExtraLoss)
		}
	}
}

func TestPlacementFeedsCablingPlan(t *testing.T) {
	ft := smallFatTree(t)
	f := newFloor(t, 3, 10)
	p, err := Greedy(ft, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cabling.PlanCables(f, cabling.DefaultCatalog(), p.Demands(nil), cabling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Summarize()
	if s.Cables != ft.NumEdges() {
		t.Errorf("plan cables = %d, want %d", s.Cables, ft.NumEdges())
	}
	if s.TotalLength <= 0 {
		t.Error("plan total length not positive")
	}
}

func TestOptimizeReducesCableLength(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 6, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	f := newFloor(t, 4, 16)
	p, err := Greedy(ft, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Scramble the greedy placement to give the annealer headroom, then
	// check it recovers.
	n := p.NumRacks()
	for i := 0; i < n/2; i++ {
		j := n - 1 - i
		sa, sb := p.SlotOfRack[i], p.SlotOfRack[j]
		rua, rub := f.UsedRU(sa), f.UsedRU(sb)
		f.ReleaseRU(sa, rua)
		f.ReleaseRU(sb, rub)
		if err := f.ReserveRU(sa, rub); err != nil {
			t.Fatal(err)
		}
		if err := f.ReserveRU(sb, rua); err != nil {
			t.Fatal(err)
		}
		p.SlotOfRack[i], p.SlotOfRack[j] = sb, sa
	}
	before, after := optimize(t, p, 8000, 3)
	if after >= before {
		t.Errorf("anneal did not improve: %v -> %v", before, after)
	}
	// Slot occupancy must remain a valid bijection.
	seen := map[int]bool{}
	for _, s := range p.SlotOfRack {
		if seen[s] {
			t.Fatalf("two racks share slot %d after anneal", s)
		}
		seen[s] = true
	}
}

func TestHillClimbNeverWorsens(t *testing.T) {
	ft := smallFatTree(t)
	f := newFloor(t, 3, 10)
	p, err := Greedy(ft, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before, after := HillClimbOptimize(p, 2000, 5)
	if after > before {
		t.Errorf("hill climb worsened: %v -> %v", before, after)
	}
}

func TestCableLengthConsistentWithRoutes(t *testing.T) {
	ft := smallFatTree(t)
	f := newFloor(t, 3, 10)
	p, err := Greedy(ft, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var manual units.Meters
	for _, e := range ft.Edges {
		if e.U == -1 {
			continue
		}
		manual += f.MustRouteBetween(p.LocOfSwitch(e.U), p.LocOfSwitch(e.V)).Length
	}
	if got := p.CableLength(); got != manual {
		t.Errorf("CableLength = %v, manual = %v", got, manual)
	}
}
