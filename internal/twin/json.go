package twin

import (
	"encoding/json"
	"fmt"
	"sort"
)

// The wire format keeps the §5.2 promise concrete: a twin is plain,
// declarative data — entities and relations — that any tool can consume
// without reading automation code.

type modelJSON struct {
	Entities  []*Entity  `json:"entities"`
	Relations []Relation `json:"relations"`
}

// MarshalJSON serializes the model deterministically: entities sorted by
// ID, relations in insertion order.
func (m *Model) MarshalJSON() ([]byte, error) {
	out := modelJSON{Entities: m.allEntitiesSorted(), Relations: m.relations}
	return json.Marshal(out)
}

// UnmarshalJSON loads a model, re-validating entity uniqueness and
// relation endpoints so a corrupted file can't build an inconsistent
// twin.
func (m *Model) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	fresh := NewModel()
	for _, e := range in.Entities {
		if e == nil {
			return fmt.Errorf("twin: null entity in document")
		}
		if err := fresh.Add(e); err != nil {
			return err
		}
	}
	for _, r := range in.Relations {
		if err := fresh.Relate(r.From, r.Verb, r.To); err != nil {
			return err
		}
	}
	m.entities, m.relations = fresh.entities, fresh.relations
	m.index.Store(nil)
	return nil
}

// Fingerprint returns a stable short digest of the model's content, used
// to detect drift between an intended design and an as-built record
// without diffing whole documents. It is an FNV-1a over the canonical
// serialization.
func (m *Model) Fingerprint() (string, error) {
	b, err := m.MarshalJSON()
	if err != nil {
		return "", err
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return fmt.Sprintf("%016x", h), nil
}

// Diff reports entity IDs present in exactly one of the two models and
// attribute mismatches on shared entities — the intended-vs-as-built
// comparison §5.3 needs ("existing data is often incomplete or wrong").
type DiffResult struct {
	OnlyInA []string
	OnlyInB []string
	// AttrMismatch maps entity ID → attribute names that differ.
	AttrMismatch map[string][]string
}

// Empty reports whether the models matched.
func (d DiffResult) Empty() bool {
	return len(d.OnlyInA) == 0 && len(d.OnlyInB) == 0 && len(d.AttrMismatch) == 0
}

// Diff compares two models structurally.
func Diff(a, b *Model) DiffResult {
	res := DiffResult{AttrMismatch: map[string][]string{}}
	for id := range a.entities {
		if b.entities[id] == nil {
			res.OnlyInA = append(res.OnlyInA, id)
		}
	}
	for id := range b.entities {
		if a.entities[id] == nil {
			res.OnlyInB = append(res.OnlyInB, id)
		}
	}
	sort.Strings(res.OnlyInA)
	sort.Strings(res.OnlyInB)
	for id, ea := range a.entities {
		eb := b.entities[id]
		if eb == nil {
			continue
		}
		var bad []string
		seen := map[string]bool{}
		for k, v := range ea.Attrs {
			seen[k] = true
			if bv, ok := eb.Attrs[k]; !ok || bv != v {
				bad = append(bad, k)
			}
		}
		for k := range eb.Attrs {
			if !seen[k] {
				bad = append(bad, k)
			}
		}
		if ea.Kind != eb.Kind {
			bad = append(bad, "(kind)")
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			res.AttrMismatch[id] = bad
		}
	}
	return res
}
