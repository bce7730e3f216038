package twin

import "slices"

// relKey addresses one adjacency row: the relations of one verb leaving
// an entity (forward direction) or arriving at it (reverse direction).
type relKey struct {
	id   string
	verb Verb
}

// relRows is one direction of the relation index in compressed-sparse-row
// form: slot maps a key to its dense row number s, and
// flat[off[s]:off[s+1]] holds the row's far-end IDs, sorted. One flat
// array and one offsets array serve every row, so a build costs a
// handful of allocations however many keys the model has.
type relRows struct {
	slot map[relKey]int32
	off  []int32
	flat []string
}

// relIndex answers Related (out) and RelatedTo (in) without scanning the
// relation list.
type relIndex struct {
	out, in relRows
}

func buildRelIndex(rels []Relation) *relIndex {
	slots := make([]int32, len(rels)) // reused by both directions
	return &relIndex{out: buildRows(rels, false, slots), in: buildRows(rels, true, slots)}
}

// buildRows packs rels keyed by (From, Verb) → To, or by (To, Verb) →
// From when reverse. Duplicate relations stay duplicated, as a scan
// would report them. slots (one per relation) is working space that
// remembers each relation's row between the two passes.
func buildRows(rels []Relation, reverse bool, slots []int32) relRows {
	entry := func(r Relation) (relKey, string) {
		if reverse {
			return relKey{r.To, r.Verb}, r.From
		}
		return relKey{r.From, r.Verb}, r.To
	}
	d := relRows{slot: map[relKey]int32{}, flat: make([]string, len(rels))}
	// Pass 1: a dense row per key, counting its entries.
	for i, r := range rels {
		k, _ := entry(r)
		s, ok := d.slot[k]
		if !ok {
			s = int32(len(d.off))
			d.slot[k] = s
			d.off = append(d.off, 0)
		}
		d.off[s]++
		slots[i] = s
	}
	// Running sums turn each count into its row's end.
	for s := 1; s < len(d.off); s++ {
		d.off[s] += d.off[s-1]
	}
	d.off = append(d.off, int32(len(rels)))
	// Pass 2: fill each row back to front; off[s] ends at the row's start,
	// which is also where row s-1 ends.
	for i, r := range rels {
		_, v := entry(r)
		s := slots[i]
		d.off[s]--
		d.flat[d.off[s]] = v
	}
	for s := 0; s+1 < len(d.off); s++ {
		slices.Sort(d.flat[d.off[s]:d.off[s+1]])
	}
	return d
}

// row returns the sorted row for (id, verb), capacity-capped so an
// append by the caller copies instead of overwriting the next row.
func (d *relRows) row(id string, verb Verb) []string {
	s, ok := d.slot[relKey{id, verb}]
	if !ok {
		return nil
	}
	lo, hi := d.off[s], d.off[s+1]
	return d.flat[lo:hi:hi]
}
