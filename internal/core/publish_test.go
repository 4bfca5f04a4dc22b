package core

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"iolap/internal/share"
)

// innerAgg returns the engine's one aggregate below the root.
func innerAgg(t *testing.T, eng *Engine) *opAgg {
	t.Helper()
	var inner *opAgg
	for _, op := range eng.comp.ops {
		if a, ok := op.(*opAgg); ok && len(a.node.GroupBy) > 0 {
			if inner != nil {
				t.Fatal("more than one grouped aggregate")
			}
			inner = a
		}
	}
	if inner == nil {
		t.Fatal("no grouped aggregate")
	}
	return inner
}

// TestPublishOnRead: after batch 1 of nested_few_read (8,000 inner cdn
// groups, B = 100), the inner aggregate's table has computed its eager set
// and the groups the outer select resolved — the cdns of the batch's rows
// with play_time > 600, the only rows whose predicate reaches the inner
// average — and no other group: under 10% of them.
func TestPublishOnRead(t *testing.T) {
	db := testDB(16000, 42)
	rekeyCDN(db, 8000)
	eng, err := NewEngine(planQuery(t, nestedFewRead), db, Options{Batches: 8, Trials: 100, Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	inner := innerAgg(t, eng)
	read := map[string]bool{}
	for _, tp := range eng.deltas[0].Tuples {
		if tp.Vals[2].Float() > 600 {
			read[tp.Vals[3].Str()] = true
		}
	}
	tb := inner.live
	got := tb.eager + tb.reads
	t.Logf("batch 1: %d groups, %d materialised (%d eager, %d read), %d cdns resolved",
		len(inner.groups), got, tb.eager, tb.reads, len(read))
	if want := tb.eager + len(read); got != want {
		t.Errorf("materialised %d groups, want the eager set plus the resolved keys: %d + %d", got, tb.eager, len(read))
	}
	if 10*got >= len(inner.groups) {
		t.Errorf("materialised %d of %d groups, want under 10%%", got, len(inner.groups))
	}
}

// TestSharedMemoReadAfterEntryMoved: two engines on one share.Cache and one
// schedule, the second stepped only after the first has run every batch, so
// every table the second reads was memoised by a shared entry that has since
// stepped on (and, on the recovery fixture, forked paths). Each must match a
// solo engine at its own configuration field for field, the fields sharing
// may change aside.
func TestSharedMemoReadAfterEntryMoved(t *testing.T) {
	for _, name := range []string{"nested_few_read", "recovery"} {
		var gc goldenCase
		for _, c := range goldenCases(t) {
			if c.name == name {
				gc = c
			}
		}
		_, c := gc.at(t, 25)
		t.Run(name, func(t *testing.T) {
			src, _ := c.db.Get(c.streamed)
			deltas := ContiguousDeltas(src, c.opts.Batches)
			cache := share.NewCache()
			cfgs := []execConfig{{workers: 1, novec: true}, {workers: 8}}
			var engs []*Engine
			for _, cfg := range cfgs {
				o := c.opts
				o.Workers, o.NoVectorize = cfg.workers, cfg.novec
				o.Deltas, o.SharedState = deltas, cache
				eng, err := NewEngine(c.root, c.db, o)
				if err != nil {
					t.Fatal(err)
				}
				eng.SetCutover(1)
				defer eng.Close()
				engs = append(engs, eng)
			}
			if cache.Stats().Hits == 0 {
				t.Fatal("the engines share no state")
			}
			for i, eng := range engs {
				us, err := eng.Run()
				if err != nil {
					t.Fatalf("engine %d: %v", i, err)
				}
				compareUpdates(t, fmt.Sprintf("engine %d (%+v)", i, cfgs[i]), runAt(t, c, cfgs[i]).us, us, sharedFields...)
			}
		})
	}
}

// TestEngineStateFreedByOneGC: once an engine is dropped, one collection
// frees its aggregates. The runtime keeps listing a used sync.Pool until the
// second collection after its last use, so the aggregate's merge-buffer pool
// must not reach back into the operator tree.
func TestEngineStateFreedByOneGC(t *testing.T) {
	db := testDB(2000, 42)
	rekeyCDN(db, 1000)
	eng, err := NewEngine(planQuery(t, nestedFewRead), db, Options{Batches: 4, Trials: 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetCutover(1)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var aggs []weak.Pointer[opAgg]
	for _, op := range eng.comp.ops {
		if a, ok := op.(*opAgg); ok {
			aggs = append(aggs, weak.Make(a))
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = nil
	runtime.GC()
	for i, w := range aggs {
		if w.Value() != nil {
			t.Errorf("aggregate %d of %d survives a collection after its engine was dropped", i, len(aggs))
		}
	}
}
