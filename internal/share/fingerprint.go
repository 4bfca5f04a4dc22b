// Package share implements cross-session operator-state sharing for the
// serving engine: a canonical fingerprinter over plan subtrees and a
// refcounted cache keyed by those fingerprints.
//
// Sessions admitted to one serving engine ride the same mini-batch schedule,
// which makes every operator's state a deterministic function of its plan
// subtree (plus the execution parameters that shape randomness). Two
// sessions whose plans contain equivalent subtrees therefore build
// byte-identical state — the fingerprint is the equivalence key that lets
// them build it once.
//
// Canonicalization rules (what "equivalent" means):
//
//   - Alias names never matter: scans fingerprint by (table, streamed),
//     column references by index (the engine resolves names to positions at
//     plan time), projection output names are ignored.
//   - Comparisons normalize: = and <> sort their operand fingerprints, and
//     a > b rewrites to b < a (>= to <=), so flipped comparisons collide.
//     A comparison evaluates both operands whatever their values, so their
//     order cannot change its result.
//   - Every other operand order is kept as written. AND, OR and IN stop at
//     the first operand that decides them, and a float + or * keeps the
//     first NaN's payload (DESIGN.md §10), so swapping operands can change
//     which error a row raises or which bits a result carries: two sessions
//     that wrote them in different orders must not share state.
//   - Join key pairs sort by (left, right) index: the pair list order does
//     not change which rows join.
//   - Union children do NOT sort: union emits left rows before right rows,
//     and downstream state is order-sensitive.
//   - Structure and table lineage are both part of the hash: the same
//     predicate over a different table never collides.
package share

import (
	"fmt"
	"sort"
	"strings"

	"iolap/internal/expr"
	"iolap/internal/plan"
)

// Fingerprint returns the canonical fingerprint of a plan subtree. The
// result is a readable S-expression string — equal strings mean the
// subtrees compute identical output (same rows, same order, same columns)
// over the same database and schedule. Callers scope cache keys further by
// appending the execution parameters that shape the state (seed, trials,
// mode, ...) when those matter for the shared state in question.
func Fingerprint(n plan.Node) string {
	var b strings.Builder
	fpNode(&b, n)
	return b.String()
}

func fpNode(b *strings.Builder, n plan.Node) {
	switch t := n.(type) {
	case *plan.Scan:
		// Alias ignored: σ(sessions s) and σ(sessions x) are one subtree.
		fmt.Fprintf(b, "scan(%q,stream=%v)", t.Table, t.Streamed)
	case *plan.Select:
		b.WriteString("sel(")
		b.WriteString(fpExpr(t.Pred))
		b.WriteByte(',')
		fpNode(b, t.Child)
		b.WriteByte(')')
	case *plan.Project:
		// Output names are display-only; the expressions define the state.
		b.WriteString("proj([")
		for i, e := range t.Exprs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(fpExpr(e))
		}
		b.WriteString("],")
		fpNode(b, t.Child)
		b.WriteByte(')')
	case *plan.Join:
		b.WriteString("join([")
		for i, p := range sortedKeyPairs(t.LKeys, t.RKeys) {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%d:%d", p[0], p[1])
		}
		b.WriteString("],")
		fpNode(b, t.L)
		b.WriteByte(',')
		fpNode(b, t.R)
		b.WriteByte(')')
	case *plan.Union:
		// Bag union is commutative, but the operator emits L rows before R
		// rows and downstream state is order-sensitive — keep child order.
		b.WriteString("union(")
		fpNode(b, t.L)
		b.WriteByte(',')
		fpNode(b, t.R)
		b.WriteByte(')')
	case *plan.Aggregate:
		// GroupBy and Agg order fix the output column order — keep both.
		// Spec names are aliases and are dropped.
		b.WriteString("agg(by=[")
		for i, g := range t.GroupBy {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%d", g)
		}
		b.WriteString("],fns=[")
		for i, sp := range t.Aggs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(sp.Fn.Name)
			b.WriteByte('(')
			if sp.Arg != nil {
				b.WriteString(fpExpr(sp.Arg))
			}
			b.WriteByte(')')
		}
		b.WriteString("],")
		fpNode(b, t.Child)
		b.WriteByte(')')
	default:
		// Unknown node kinds still fingerprint deterministically, but only
		// collide with themselves (pointer-free Describe text).
		fmt.Fprintf(b, "node(%T:%s)", n, n.Describe())
	}
}

// sortedKeyPairs returns the join key pairs sorted by (left, right) index.
func sortedKeyPairs(l, r []int) [][2]int {
	pairs := make([][2]int, len(l))
	for i := range l {
		pairs[i] = [2]int{l[i], r[i]}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// fpExpr returns the canonical fingerprint of a scalar expression.
func fpExpr(e expr.Expr) string {
	switch t := e.(type) {
	case *expr.Col:
		// Index only: names carry aliases.
		return fmt.Sprintf("c%d", t.Idx)
	case *expr.Const:
		// Kind disambiguates 1 (int) from 1.0 (float) from '1'.
		return fmt.Sprintf("k%d:%s", t.V.Kind(), t.V.String())
	case *expr.Arith:
		return fmt.Sprintf("(%s%s%s)", fpExpr(t.L), t.Op, fpExpr(t.R))
	case *expr.Neg:
		return "(neg " + fpExpr(t.E) + ")"
	case *expr.Cmp:
		op, l, r := t.Op, fpExpr(t.L), fpExpr(t.R)
		// a > b ≡ b < a; a >= b ≡ b <= a.
		if op == expr.Gt || op == expr.Ge {
			op, l, r = op.Mirror(), r, l
		}
		if (op == expr.Eq || op == expr.Ne) && r < l {
			l, r = r, l
		}
		return fmt.Sprintf("(%s%s%s)", l, op, r)
	case *expr.And:
		return "(and " + fpExpr(t.L) + " " + fpExpr(t.R) + ")"
	case *expr.Or:
		return "(or " + fpExpr(t.L) + " " + fpExpr(t.R) + ")"
	case *expr.Not:
		return "(not " + fpExpr(t.E) + ")"
	case *expr.Case:
		var b strings.Builder
		b.WriteString("(case")
		for _, w := range t.Whens {
			b.WriteString(" [")
			b.WriteString(fpExpr(w.Cond))
			b.WriteByte(' ')
			b.WriteString(fpExpr(w.Then))
			b.WriteByte(']')
		}
		if t.Else != nil {
			b.WriteString(" else ")
			b.WriteString(fpExpr(t.Else))
		}
		b.WriteByte(')')
		return b.String()
	case *expr.Func:
		// Scalar calls canonicalize by registered function name; argument
		// order is positional and kept.
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = fpExpr(a)
		}
		return fmt.Sprintf("(fn %s %s)", t.F.Name, strings.Join(args, " "))
	case *expr.In:
		items := make([]string, len(t.List))
		for i, it := range t.List {
			items[i] = fpExpr(it)
		}
		inv := ""
		if t.Inv {
			inv = "!"
		}
		return fmt.Sprintf("(%sin %s [%s])", inv, fpExpr(t.E), strings.Join(items, " "))
	default:
		// Unknown expression kinds fingerprint by their rendered text:
		// deterministic, no normalization.
		return fmt.Sprintf("expr(%T:%s)", e, e)
	}
}
