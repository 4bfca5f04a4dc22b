package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"iolap/internal/delta"
	"iolap/internal/plan"
	"iolap/internal/share"
	"iolap/internal/workload"
)

const compileShapeGoldenPath = "testdata/compile_shape.golden"

// TestCompileShapeGolden pins what compilation decides for every workload
// query, under ModeIOLAP and ModeHDA and as two serving sessions on one
// share.Cache and schedule: per plan whether it tracks variation ranges, and
// per operator its kind, which join sides keep a store and how each keeps
// its rows' weight vectors (compiled.storeMode: by index or as copies), and
// whether a build or an aggregate is shared. A shared aggregate lists the
// operators of its cache entry below it. The trajectory goldens hold what the operators compute; this file holds
// which operators compile chose, so a refactor of compile that keeps every
// decision leaves it byte-identical. Under ModeIOLAP it also checks the
// engine's nested classification against the workload's.
func TestCompileShapeGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Operator shapes pinned by TestCompileShapeGolden: <workload>/<query>/<run>, then one line per operator in build order.\n" +
		"# Regenerate only when compilation changes on purpose: go test ./internal/core -run TestCompileShapeGolden -update\n")
	for _, w := range []*workload.Workload{
		workload.TPCH(workload.TPCHScale{Fact: 400, Seed: 1}),
		workload.Conviva(workload.ConvivaScale{Sessions: 400, Seed: 1}),
	} {
		db := w.DB()
		for _, q := range w.Queries {
			open := func(run string, opts Options) *Engine {
				root, _, err := w.Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := NewEngine(root, db, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", q.Name, run, err)
				}
				writeCompileShape(&b, fmt.Sprintf("%s/%s/%s", w.Name, q.Name, run), eng)
				return eng
			}
			base := Options{Batches: 4, Trials: 10, Seed: 1}
			for _, mode := range []Mode{ModeIOLAP, ModeHDA} {
				opts := base
				opts.Mode = mode
				eng := open(mode.String(), opts)
				if mode == ModeIOLAP && eng.comp.analysis.Nested != q.Nested {
					t.Errorf("%s/%s: nested classification = %v, want %v",
						w.Name, q.Name, eng.comp.analysis.Nested, q.Nested)
				}
				eng.Close()
			}
			src, _ := db.Get(q.Stream)
			shared := base
			shared.Deltas = ContiguousDeltas(src, base.Batches)
			shared.SharedState = share.NewCache()
			s1 := open("session1", shared)
			s2 := open("session2", shared)
			s1.Close()
			s2.Close()
		}
	}
	if *updateGolden {
		if err := os.WriteFile(compileShapeGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(compileShapeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d: got %q, golden %q", compileShapeGoldenPath, i+1, g, w)
		}
	}
}

// writeCompileShape writes one plan's header line and its operators.
func writeCompileShape(b *strings.Builder, name string, eng *Engine) {
	fmt.Fprintf(b, "%s trackRanges=%v\n", name, eng.comp.est.track)
	writeOpShapes(b, "  ", eng.comp, eng.comp.ops)
}

// writeOpShapes writes one line per operator of ops, which c compiled (or,
// for a shared entry's operators, compiled privately from c's analysis).
func writeOpShapes(b *strings.Builder, indent string, c *compiled, ops []operator) {
	weights := func(other plan.Node) string {
		if c.storeMode(other) == delta.IndexWeights {
			return ":index"
		}
		return ":copy"
	}
	for _, op := range ops {
		b.WriteString(indent + op.kind())
		switch o := op.(type) {
		case *opScan:
			fmt.Fprintf(b, " %s", o.node.Table)
			if o.weighted {
				b.WriteString(" weighted")
			}
		case *opSelect:
			if o.predUncertain {
				b.WriteString(" uncertain")
			}
			if o.vec != nil {
				b.WriteString(" columnar")
			}
		case *opJoin:
			if o.lStore != nil {
				b.WriteString(" storeL" + weights(o.node.R))
			}
			if o.rStore != nil && !o.sharedR {
				b.WriteString(" storeR" + weights(o.node.L))
			}
			if o.sharedR {
				b.WriteString(" storeR")
			}
			if o.sharedR {
				b.WriteString(" sharedR")
			}
		case *opAgg:
			if o.est.track {
				b.WriteString(" ranges")
			}
			if o.binds {
				b.WriteString(" binds")
			}
		}
		b.WriteByte('\n')
		if o, ok := op.(*opSharedAgg); ok {
			writeOpShapes(b, indent+"  ", c, o.entry.ops)
		}
	}
}
