package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/bootstrap"
	"iolap/internal/rel"
)

// groupImage is a deep copy of one aggregate group's state, in a form that
// compares bit for bit: sketch banks and results as Float64bits, ranges with
// their whole history, lineage rows by the identity of their shared values.
type groupImage struct {
	key     []rel.Value
	sketch  [][]uint64
	ranges  []string
	lazy    []uintptr
	mults   []float64
	support int
	certain bool
	emitted bool
}

type aggImage struct {
	order  []string
	groups map[string]groupImage
}

// field reads the named field of the struct s points to, failing the test
// by name when the struct has no such field (it was renamed).
func field(t *testing.T, s any, name string) reflect.Value {
	t.Helper()
	f := reflect.ValueOf(s).Elem().FieldByName(name)
	if !f.IsValid() {
		t.Fatalf("%T has no field %q: update the snapshot chain test's image", s, name)
	}
	return f
}

// vectorBits is a vector's bank (when it has one) followed by its running
// value and replicates at scale 1, as bits.
func vectorBits(t *testing.T, v *agg.Vector) []uint64 {
	var bits []uint64
	bank := field(t, v, "bank")
	for i := 0; i < bank.Len(); i++ {
		bits = append(bits, math.Float64bits(bank.Index(i).Float()))
	}
	bits = append(bits, math.Float64bits(v.Result(1)))
	for _, r := range v.RepResults(1, nil) {
		bits = append(bits, math.Float64bits(r))
	}
	return bits
}

// rangeBits renders a range's whole history — each interval's bounds as
// bits, then the batch labels — or "none".
func rangeBits(t *testing.T, r *bootstrap.Range) string {
	if r == nil {
		return "none"
	}
	var b strings.Builder
	h := field(t, r, "history")
	for i := 0; i < h.Len(); i++ {
		iv := h.Index(i)
		fmt.Fprintf(&b, "%x:%x ", math.Float64bits(iv.Field(0).Float()), math.Float64bits(iv.Field(1).Float()))
	}
	fmt.Fprintf(&b, "labels %v slack %x", field(t, r, "labels"), math.Float64bits(field(t, r, "slack").Float()))
	return b.String()
}

func imageOf(t *testing.T, o *opAgg) aggImage {
	t.Helper()
	if len(o.groups) != len(o.order) {
		t.Fatalf("%d groups, %d in order", len(o.groups), len(o.order))
	}
	im := aggImage{order: slices.Clone(o.order), groups: map[string]groupImage{}}
	for _, k := range o.order {
		g := o.groups[k]
		gi := groupImage{key: slices.Clone(g.key), support: g.support, certain: g.certain, emitted: g.emitted}
		for _, v := range g.sketch {
			gi.sketch = append(gi.sketch, vectorBits(t, v))
		}
		for _, r := range g.ranges {
			gi.ranges = append(gi.ranges, rangeBits(t, r))
		}
		for _, r := range g.lazy.Rows {
			gi.lazy = append(gi.lazy, reflect.ValueOf(r.Vals).Pointer())
			gi.mults = append(gi.mults, r.Mult)
		}
		im.groups[k] = gi
	}
	return im
}

// diffImages names the first difference between two images, "" if none.
func diffImages(want, got aggImage) string {
	if !slices.Equal(want.order, got.order) {
		return fmt.Sprintf("order: want %d groups %v…, got %d", len(want.order), want.order[:min(3, len(want.order))], len(got.order))
	}
	for _, k := range want.order {
		if !reflect.DeepEqual(want.groups[k], got.groups[k]) {
			return fmt.Sprintf("group %q:\nwant %+v\n got %+v", k, want.groups[k], got.groups[k])
		}
	}
	return ""
}

// TestAggSnapshotChain drives the aggregates of one engine through a seeded
// sequence of batches, snapshots and restores, and checks after every restore
// that each aggregate's live groups equal a deep copy taken when the snapshot
// was made. The sequence runs past two full copies, and restores the newest
// snapshot, an older one, the same one twice, and snapshots of a sibling
// branch — a merged step from an older snapshot, the way a shared
// aggregate entry forks a path (shared.go) — in both directions.
func TestAggSnapshotChain(t *testing.T) {
	const n, batches, keys = 1200, 24, 300
	db := testDB(n, 7)
	src, _ := db.Get("sessions")
	keyRng := rand.New(rand.NewSource(3))
	for i := range src.Tuples {
		src.Tuples[i].Vals[3] = rel.String("c" + itoa(keyRng.Intn(keys)))
	}
	// Inner: a grouped aggregate whose ranges bind at 4 rows. Outer: a global
	// aggregate over its uncertain output, which keeps lineage rows.
	eng, err := NewEngine(planQuery(t, aggOverAgg), db,
		Options{Batches: batches, Trials: 10, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer eng.Close()
	eng.setRangeSupport(4)
	var aggs []*opAgg
	inner := -1 // the inner aggregate's index in eng.comp.ops
	for i, op := range eng.comp.ops {
		if a, ok := op.(*opAgg); ok {
			if len(a.node.GroupBy) > 0 {
				inner = i
			}
			aggs = append(aggs, a)
		}
	}
	if len(aggs) != 2 || inner < 0 {
		t.Fatalf("want a grouped inner and a global outer aggregate, got %d aggregates", len(aggs))
	}

	type point struct {
		done, seen int // batches and rows consumed
		ops        []interface{}
		images     []aggImage
	}
	var points []*point
	done, seen := 0, 0
	take := func() *point {
		p := &point{done: done, seen: seen}
		for _, op := range eng.comp.ops {
			p.ops = append(p.ops, op.snapshot())
		}
		for _, a := range aggs {
			p.images = append(p.images, imageOf(t, a))
		}
		points = append(points, p)
		return p
	}
	step := func(k int) {
		to := min(done+k, batches)
		merged := eng.mergeDeltas(done, to)
		seen += merged.Len()
		eng.batch = to
		if _, err := eng.comp.sink.step(eng.newBatchContext(merged, seen, to-done > 1)); err != nil {
			t.Fatalf("step to %d: %v", to, err)
		}
		done = to
	}
	restores := 0
	restore := func(p *point, what string) {
		t.Helper()
		for i, op := range eng.comp.ops {
			op.restore(p.ops[i])
		}
		done, seen = p.done, p.seen
		restores++
		for i, a := range aggs {
			if d := diffImages(p.images[i], imageOf(t, a)); d != "" {
				t.Fatalf("restore %d (%s, after batch %d), aggregate %d: %s", restores, what, p.done, i, d)
			}
		}
	}

	// One lineage, a snapshot before every batch as Engine.Step takes them.
	for done < 20 {
		take()
		step(1)
	}
	first := points
	restore(take(), "newest")
	restore(first[5], "older")
	restore(first[5], "same again")
	// A sibling branch off first[5]: merged steps leave other range state.
	step(3)
	branch := take()
	step(2)
	take()
	step(1)
	restore(first[12], "sibling on the first lineage")
	restore(branch, "sibling on the branch")
	restore(first[2], "older than the fork")

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 80; i++ {
		switch r := rng.Intn(10); {
		case r < 5 && done < batches:
			take()
			step(1 + rng.Intn(2))
		case r < 7:
			restore(points[len(points)-1], "newest")
		default:
			restore(points[rng.Intn(len(points))], "random")
		}
	}

	// The chain did what it claims: full copies recur, and a chained link
	// copies only part of the groups.
	full, partial := 0, 0
	for _, p := range points {
		s := p.ops[inner].(*aggSnap)
		if s.prev == nil {
			full++
		} else if len(s.groups) < len(s.order) {
			partial++
		}
		if s.depth >= aggSnapFullEvery {
			t.Fatalf("snapshot after batch %d sits %d links deep, want < %d", p.done, s.depth, aggSnapFullEvery)
		}
	}
	if full < 2 || partial == 0 {
		t.Fatalf("%d full copies and %d partial links in %d snapshots, want >= 2 and > 0", full, partial, len(points))
	}
	t.Logf("%d snapshots (%d full, %d partial), %d restores", len(points), full, partial, restores)
}
