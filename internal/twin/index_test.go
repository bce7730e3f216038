package twin

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// scanRelated is the index's reference: a sorted scan of every
// relation, matching on one end and reporting the other.
func scanRelated(m *Model, id string, verb Verb, reverse bool) []string {
	var out []string
	for _, r := range m.Relations() {
		switch {
		case !reverse && r.From == id && r.Verb == verb:
			out = append(out, r.To)
		case reverse && r.To == id && r.Verb == verb:
			out = append(out, r.From)
		}
	}
	slices.Sort(out)
	return out
}

var allVerbs = []Verb{VerbContains, VerbConnects, VerbRoutesThrough, VerbFeeds}

// checkAgainstScan compares Related and RelatedTo with the scan for
// every (id, verb), including IDs no longer in the model.
func checkAgainstScan(t *testing.T, m *Model, ids []string, step int) {
	t.Helper()
	for _, id := range ids {
		for _, v := range allVerbs {
			if got, want := m.Related(id, v), scanRelated(m, id, v, false); !slices.Equal(got, want) {
				t.Fatalf("step %d: Related(%s, %s) = %v, scan says %v", step, id, v, got, want)
			}
			if got, want := m.RelatedTo(id, v), scanRelated(m, id, v, true); !slices.Equal(got, want) {
				t.Fatalf("step %d: RelatedTo(%s, %s) = %v, scan says %v", step, id, v, got, want)
			}
		}
	}
}

// TestRelatedMatchesScan: after every step of random Add / Relate /
// Unrelate / Remove sequences, the index answers exactly what a sorted
// scan of the relation list does. The ID space is small, so duplicate
// relations (which Relate allows) and relations touching removed and
// re-added entities are common.
func TestRelatedMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		m := NewModel()
		var ids []string
		for i := 0; i < 8; i++ {
			ids = append(ids, fmt.Sprintf("e%d", i))
		}
		live := func() []string {
			var out []string
			for _, id := range ids {
				if m.Entity(id) != nil {
					out = append(out, id)
				}
			}
			return out
		}
		for step := 0; step < 200; step++ {
			switch op := rng.IntN(10); {
			case op < 3:
				id := ids[rng.IntN(len(ids))]
				if m.Entity(id) == nil {
					if err := m.Add(&Entity{ID: id, Kind: KindRack}); err != nil {
						t.Fatal(err)
					}
				}
			case op < 7:
				if l := live(); len(l) > 0 {
					from, to := l[rng.IntN(len(l))], l[rng.IntN(len(l))]
					if err := m.Relate(from, allVerbs[rng.IntN(len(allVerbs))], to); err != nil {
						t.Fatal(err)
					}
				}
			case op < 9:
				if rels := m.Relations(); len(rels) > 0 {
					r := rels[rng.IntN(len(rels))]
					m.Unrelate(r.From, r.Verb, r.To)
				}
			default:
				if l := live(); len(l) > 0 {
					if err := m.Remove(l[rng.IntN(len(l))]); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Query only some steps, so mutations also pile up on a
			// dropped index and on one never built.
			if rng.IntN(3) == 0 {
				checkAgainstScan(t, m, ids, step)
			}
		}
		checkAgainstScan(t, m, ids, -1)
	}
}

// TestRelatedIsCapacityCapped: the shared row a query returns cannot be
// grown into its neighbor; an append copies.
func TestRelatedIsCapacityCapped(t *testing.T) {
	m := NewModel()
	for _, id := range []string{"a", "b", "x", "y"} {
		mustAdd(t, m, &Entity{ID: id, Kind: KindRack})
	}
	mustRelate(t, m, "a", VerbContains, "x")
	mustRelate(t, m, "b", VerbContains, "y")
	row := m.Related("a", VerbContains)
	if len(row) != cap(row) {
		t.Fatalf("row %v has len %d but cap %d", row, len(row), cap(row))
	}
	_ = append(row, "intruder")
	if got := m.Related("b", VerbContains); !slices.Equal(got, []string{"y"}) {
		t.Fatalf("append to one row changed another: %v", got)
	}
}

// TestRelatedConcurrentReaders: goroutines querying one fresh model race
// to build its index. Under -race this guards the lazy build; every
// reader must still see the full answer.
func TestRelatedConcurrentReaders(t *testing.T) {
	ref, _, _ := fatTreeTwin(t)
	racks := ref.EntitiesOfKind(KindRack)
	want := make([][]string, len(racks))
	for i, r := range racks {
		want[i] = scanRelated(ref, r.ID, VerbContains, false)
	}
	wantViolations := len(CheckAll(ref, DefaultSchema(), DefaultRules()))
	for round := 0; round < 4; round++ {
		m, _, _ := fatTreeTwin(t)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, r := range racks {
					if got := m.Related(r.ID, VerbContains); !slices.Equal(got, want[i]) {
						errs <- fmt.Sprintf("Related(%s) = %v, want %v", r.ID, got, want[i])
						return
					}
				}
				if n := len(CheckAll(m, DefaultSchema(), DefaultRules())); n != wantViolations {
					errs <- fmt.Sprintf("CheckAll found %d violations, want %d", n, wantViolations)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// TestUnmarshalIntoQueriedModel: loading a document into a model whose
// index is already built must drop that index, so queries answer from
// the loaded relations.
func TestUnmarshalIntoQueriedModel(t *testing.T) {
	m := buildSmallModel(t)
	if got := m.Related("r1", VerbContains); !slices.Equal(got, []string{"s1"}) {
		t.Fatalf("before load: Related = %v", got)
	}
	other := NewModel()
	mustAdd(t, other, &Entity{ID: "r1", Kind: KindRack})
	mustAdd(t, other, &Entity{ID: "s2", Kind: KindSwitch})
	mustAdd(t, other, &Entity{ID: "s3", Kind: KindSwitch})
	mustRelate(t, other, "r1", VerbContains, "s3")
	mustRelate(t, other, "r1", VerbContains, "s2")
	data, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, m); err != nil {
		t.Fatal(err)
	}
	if got := m.Related("r1", VerbContains); !slices.Equal(got, []string{"s2", "s3"}) {
		t.Errorf("after load: Related = %v, want [s2 s3]", got)
	}
	if got := m.RelatedTo("s1", VerbContains); got != nil {
		t.Errorf("after load: RelatedTo(s1) = %v, want none", got)
	}
}
