package plan

import (
	"fmt"
	"strings"

	"iolap/internal/expr"
)

// NodeInfo records the compile-time uncertainty tagging (Section 4.1) of one
// operator's output.
type NodeInfo struct {
	// UncertainCols[i] is true when output column i can carry attribute
	// uncertainty (uA may be T for some tuples).
	UncertainCols []bool
	// TupleUncertain is true when the operator can emit tuples whose
	// multiplicity may change across batches (u# may be T).
	TupleUncertain bool
	// Incomplete is true when the subtree reads a streamed relation, i.e.
	// aggregates above it run on incomplete data.
	Incomplete bool
	// AggSource[i], for uncertain columns produced directly by an
	// aggregate, is the id of that aggregate operator (lineage source);
	// -1 otherwise. Columns computed *from* uncertain columns keep -1 and
	// are recomputed via their operator's expressions on refresh.
	AggSource []int
	// Grows is true when the operator can emit new certain-multiplicity
	// rows after its first batch — the condition under which the opposite
	// join side must keep state (Section 4.2's JOIN rule). A streamed scan
	// grows; a grouped aggregate grows when its input is incomplete or
	// tuple-uncertain; a global aggregate's single row exists from batch 1.
	Grows bool
	// Aggregated is true when an aggregate sits at or below the operator.
	Aggregated bool
}

// Analysis is the per-operator tagging for a finalized plan.
type Analysis struct {
	Info []NodeInfo // indexed by node ID
	// Nested is true when an aggregate's result feeds an operator that must
	// re-evaluate across batches — a select whose predicate, or an aggregate
	// whose argument, reads an uncertain column. It marks the query class
	// (nested subqueries) on which classical delta rules degrade.
	Nested bool
}

// Analyze runs the Section 4.1 uncertainty propagation rules over the plan
// and validates the Section 3.3 restrictions (deterministic join and
// group-by keys). Finalize must have been called.
func Analyze(root Node, numOps int) (*Analysis, error) {
	a := &Analysis{Info: make([]NodeInfo, numOps)}
	var err error
	Walk(root, func(n Node) {
		if err != nil {
			return
		}
		err = a.analyzeNode(n)
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

func newInfo(n int) NodeInfo {
	info := NodeInfo{UncertainCols: make([]bool, n), AggSource: make([]int, n)}
	for i := range info.AggSource {
		info.AggSource[i] = -1
	}
	return info
}

func (a *Analysis) analyzeNode(n Node) error {
	switch t := n.(type) {
	case *Scan:
		// Base relation: all attributes deterministic. Physical tuples
		// already seen have certain multiplicity (s(t;i)=1 is monotone),
		// so emitted rows carry u# = F.
		info := newInfo(len(t.Out))
		info.Incomplete = t.Streamed
		info.Grows = t.Streamed
		a.Info[n.ID()] = info

	case *Select:
		// SELECT propagates attribute uncertainty; it adds tuple
		// uncertainty when the predicate reads uncertain attributes.
		child := a.Info[t.Child.ID()]
		info := newInfo(len(child.UncertainCols))
		copy(info.UncertainCols, child.UncertainCols)
		copy(info.AggSource, child.AggSource)
		info.Incomplete = child.Incomplete
		info.Grows = child.Grows
		info.Aggregated = child.Aggregated
		unc := a.predUncertain(t)
		info.TupleUncertain = child.TupleUncertain || unc
		a.Nested = a.Nested || unc
		a.Info[n.ID()] = info

	case *Project:
		// PROJECT propagates tuple uncertainty; an output column is
		// uncertain when its expression reads an uncertain input column.
		child := a.Info[t.Child.ID()]
		uncMap := colSet(child.UncertainCols)
		info := newInfo(len(t.Exprs))
		for i, e := range t.Exprs {
			for _, c := range e.Cols(nil) {
				if uncMap[c] {
					info.UncertainCols[i] = true
				}
			}
			// A bare column reference keeps its lineage source.
			if src := singleColSource(e, child); src >= 0 && info.UncertainCols[i] {
				info.AggSource[i] = src
			}
		}
		info.Incomplete = child.Incomplete
		info.Grows = child.Grows
		info.Aggregated = child.Aggregated
		info.TupleUncertain = child.TupleUncertain
		a.Info[n.ID()] = info

	case *Join:
		l, r := a.Info[t.L.ID()], a.Info[t.R.ID()]
		// Section 3.3: approximate join keys are unsupported.
		for _, k := range t.LKeys {
			if l.UncertainCols[k] {
				return fmt.Errorf("plan: uncertain join key %s",
					t.L.Schema()[k].QualifiedName())
			}
		}
		for _, k := range t.RKeys {
			if r.UncertainCols[k] {
				return fmt.Errorf("plan: uncertain join key %s",
					t.R.Schema()[k].QualifiedName())
			}
		}
		info := newInfo(len(l.UncertainCols) + len(r.UncertainCols))
		copy(info.UncertainCols, l.UncertainCols)
		copy(info.UncertainCols[len(l.UncertainCols):], r.UncertainCols)
		copy(info.AggSource, l.AggSource)
		copy(info.AggSource[len(l.AggSource):], r.AggSource)
		info.Incomplete = l.Incomplete || r.Incomplete
		info.Grows = l.Grows || r.Grows
		info.Aggregated = l.Aggregated || r.Aggregated
		info.TupleUncertain = l.TupleUncertain || r.TupleUncertain
		a.Info[n.ID()] = info

	case *Union:
		l, r := a.Info[t.L.ID()], a.Info[t.R.ID()]
		info := newInfo(len(l.UncertainCols))
		for i := range info.UncertainCols {
			info.UncertainCols[i] = l.UncertainCols[i] || r.UncertainCols[i]
			if l.AggSource[i] == r.AggSource[i] {
				info.AggSource[i] = l.AggSource[i]
			}
		}
		info.Incomplete = l.Incomplete || r.Incomplete
		info.Grows = l.Grows || r.Grows
		info.Aggregated = l.Aggregated || r.Aggregated
		info.TupleUncertain = l.TupleUncertain || r.TupleUncertain
		a.Info[n.ID()] = info

	case *Aggregate:
		child := a.Info[t.Child.ID()]
		cs := t.Child.Schema()
		// Section 3.3: approximate group-by keys are unsupported.
		for _, g := range t.GroupBy {
			if child.UncertainCols[g] {
				return fmt.Errorf("plan: uncertain group-by key %s",
					cs[g].QualifiedName())
			}
		}
		info := newInfo(len(t.GroupBy) + len(t.Aggs))
		// Group-by output columns are deterministic (validated above).
		// Aggregate result columns are uncertain when computed on
		// incomplete data, on tuple-uncertain input, or over uncertain
		// argument columns.
		uncMap := colSet(child.UncertainCols)
		for i, sp := range t.Aggs {
			out := len(t.GroupBy) + i
			unc := child.Incomplete || child.TupleUncertain
			if sp.Arg != nil {
				for _, c := range sp.Arg.Cols(nil) {
					if uncMap[c] {
						unc = true
						a.Nested = true
					}
				}
			}
			info.UncertainCols[out] = unc
			if unc {
				info.AggSource[out] = n.ID()
			}
		}
		info.Incomplete = child.Incomplete
		info.Grows = len(t.GroupBy) > 0 && (child.Incomplete || child.TupleUncertain)
		info.Aggregated = true
		// A group's existence is certain once any certain-multiplicity
		// input tuple contributes (u# = AND over the group). At compile
		// time this is refined per group at runtime; conservatively the
		// operator can emit tuple-uncertain rows only if its input can.
		info.TupleUncertain = child.TupleUncertain
		a.Info[n.ID()] = info

	default:
		return fmt.Errorf("plan: unknown node type %T", n)
	}
	return nil
}

// predUncertain reports whether a select's predicate reads any uncertain
// input column.
func (a *Analysis) predUncertain(s *Select) bool {
	child := a.Info[s.Child.ID()]
	for _, c := range s.Pred.Cols(nil) {
		if child.UncertainCols[c] {
			return true
		}
	}
	return false
}

func colSet(unc []bool) map[int]bool {
	m := make(map[int]bool)
	for i, u := range unc {
		if u {
			m[i] = true
		}
	}
	return m
}

// singleColSource returns the lineage source when e is a bare column
// reference into the child; -1 otherwise (computed columns are refreshed by
// re-evaluating their operator's expression locally).
func singleColSource(e interface{ Cols([]int) []int }, child NodeInfo) int {
	col, ok := e.(*expr.Col)
	if !ok {
		return -1
	}
	return child.AggSource[col.Idx]
}

// Validate checks structural invariants of a finalized plan: every column
// index in expressions, keys and group-by lists is within its input schema.
func Validate(root Node) error {
	var err error
	Walk(root, func(n Node) {
		if err != nil {
			return
		}
		check := func(cols []int, width int, what string) {
			for _, c := range cols {
				if c < 0 || c >= width {
					err = fmt.Errorf("plan: %s column %d out of range (width %d) at #%d %s",
						what, c, width, n.ID(), n.Describe())
				}
			}
		}
		switch t := n.(type) {
		case *Select:
			check(t.Pred.Cols(nil), len(t.Child.Schema()), "predicate")
		case *Project:
			for _, e := range t.Exprs {
				check(e.Cols(nil), len(t.Child.Schema()), "projection")
			}
		case *Join:
			check(t.LKeys, len(t.L.Schema()), "left key")
			check(t.RKeys, len(t.R.Schema()), "right key")
		case *Aggregate:
			check(t.GroupBy, len(t.Child.Schema()), "group-by")
			for _, sp := range t.Aggs {
				if sp.Arg != nil {
					check(sp.Arg.Cols(nil), len(t.Child.Schema()), "aggregate arg")
				}
			}
		}
	})
	return err
}

// FormatAnnotated renders the plan tree with its uncertainty tagging — the
// Figure 3 annotations as a diagnostic: per-operator tuple uncertainty and
// the uncertain output columns with their lineage sources.
func FormatAnnotated(root Node, an *Analysis) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		info := an.Info[n.ID()]
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "#%d %s", n.ID(), n.Describe())
		var tags []string
		if info.TupleUncertain {
			tags = append(tags, "u#=T")
		}
		var unc []string
		schema := n.Schema()
		for i, u := range info.UncertainCols {
			if !u {
				continue
			}
			col := schema[i].Name
			if src := info.AggSource[i]; src >= 0 {
				col += fmt.Sprintf("<-#%d", src)
			}
			unc = append(unc, col)
		}
		if len(unc) > 0 {
			tags = append(tags, "uA{"+strings.Join(unc, ",")+"}")
		}
		if info.Incomplete {
			tags = append(tags, "incomplete")
		}
		if len(tags) > 0 {
			fmt.Fprintf(&b, "   [%s]", strings.Join(tags, " "))
		}
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}
