package core

import (
	"testing"

	"iolap/internal/delta"
	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/storage"
)

// rowLedger remembers the first-seen values of every row it is shown, keyed
// by the identity of the row's value array (the part rows share; Mult and the
// W header travel by value), and reports any later sighting whose values
// differ: a write through a shared row.
type rowLedger struct {
	t    *testing.T
	seen map[*rel.Value][]rel.Value
}

func (l *rowLedger) see(where string, r delta.Row) {
	if len(r.Vals) == 0 {
		return
	}
	id := &r.Vals[0]
	was, ok := l.seen[id]
	if !ok {
		l.seen[id] = append([]rel.Value(nil), r.Vals...)
		return
	}
	for i, v := range r.Vals {
		// rel.Value is a comparable struct; the fixtures hold no NaN.
		if v != was[i] {
			l.t.Errorf("%s: shared row written in place: column %d was %v, is %v", where, i, was[i], v)
			was[i] = v // report each write once
		}
	}
}

// walk shows the ledger every row the engine currently remembers: live
// operator state and every retained snapshot.
func (l *rowLedger) walk(e *Engine) {
	set := func(where string, s *delta.RowSet) {
		for _, r := range s.Rows {
			l.see(where, r)
		}
	}
	for _, op := range e.comp.ops {
		switch o := op.(type) {
		case *opSelect:
			set("select state", &o.state)
		case *opSink:
			set("sink state", &o.certain)
			for _, r := range o.lastUnc {
				l.see("sink pending", r)
			}
		case *opAgg:
			for _, g := range o.groups {
				set("aggregate lineage", &g.lazy)
			}
		case *opJoin:
			for _, st := range []*delta.HashStore{o.lStore, o.rStore} {
				// A spilled row decodes into a fresh array on every read;
				// only resident rows have an identity to track.
				if st != nil && st.SpilledRows() == 0 {
					st.Each(func(r delta.Row) { l.see("join store", r) })
				}
			}
		}
	}
	for _, sn := range append([]engineSnap{e.base}, e.snaps...) {
		for _, s := range sn.ops {
			switch s := s.(type) {
			case *delta.RowSet:
				set("select snapshot", s)
			case *aggSnap:
				for link := s; link != nil; link = link.prev {
					for _, g := range link.groups {
						set("aggregate snapshot", &delta.RowSet{Rows: g.lazy})
					}
				}
			}
		}
	}
}

// baseTuples copies every base-table tuple of db, by table and position.
func baseTuples(db *exec.DB) map[string][]rel.Tuple {
	out := map[string][]rel.Tuple{}
	for _, name := range db.Tables() {
		src, _ := db.Get(name)
		cp := make([]rel.Tuple, len(src.Tuples))
		for i, tp := range src.Tuples {
			cp[i] = rel.Tuple{Vals: append([]rel.Value(nil), tp.Vals...), Mult: tp.Mult}
		}
		out[name] = cp
	}
	return out
}

// TestStateSharesImmutableRows enforces the invariant stated on delta.Row:
// operator state, snapshots and restores share rows — and base-table tuples —
// instead of copying them, so nothing may ever write one in place. Every
// golden-trajectory shape (recovery fixtures and the OPT1/HDA regeneration
// paths included) runs to completion, in memory and with all join state
// spilled; after every batch each remembered row must still hold what it held
// when first seen, and at the end every base-table tuple must be untouched.
// Dropping regenerate's clone fails it on the OPT1/HDA cases.
func TestStateSharesImmutableRows(t *testing.T) {
	for _, c := range goldenCases(t) {
		for _, spill := range []bool{false, true} {
			c, spill := c, spill
			name := c.name + "/memory"
			if spill {
				name = c.name + "/spilled"
			}
			t.Run(name, func(t *testing.T) {
				opts := c.opts
				opts.Trials, opts.Workers = 25, 4
				if spill {
					opts.StateBudgetBytes, opts.SpillFS = -1, storage.NewMemFS()
				}
				db := goldenDB(c)
				before := baseTuples(db)
				eng, err := NewEngine(planGolden(t, c), db, opts)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				defer eng.Close()
				eng.SetCutover(1)
				ledger := &rowLedger{t: t, seen: map[*rel.Value][]rel.Value{}}
				for !eng.Done() {
					if _, err := eng.Step(); err != nil {
						t.Fatalf("step: %v", err)
					}
					ledger.walk(eng)
				}
				if c.wantRecovery && eng.TotalRecoveries() == 0 {
					t.Fatal("recovery fixture no longer triggers recoveries")
				}
				for name, want := range before {
					src, _ := db.Get(name)
					if len(src.Tuples) != len(want) {
						t.Fatalf("table %s: %d tuples, had %d", name, len(src.Tuples), len(want))
					}
					for i, tp := range src.Tuples {
						if tp.Mult != want[i].Mult {
							t.Errorf("table %s tuple %d: multiplicity written", name, i)
						}
						for j, v := range tp.Vals {
							if v != want[i].Vals[j] {
								t.Errorf("table %s tuple %d column %d: was %v, is %v", name, i, j, want[i].Vals[j], v)
							}
						}
					}
				}
			})
		}
	}
}
