package sql

// The AST mirrors the supported SQL surface. Expression nodes are untyped;
// the planner resolves names and lowers them to internal/expr.

// Node is any AST node (marker).
type Node interface{ astNode() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items   []SelectItem
	From    []TableRef
	Where   ExprNode
	GroupBy []ExprNode
	Having  ExprNode
	OrderBy []OrderItem
	Limit   int // -1 when absent
	// UnionAll chains another SELECT with bag-union semantics.
	UnionAll *SelectStmt
	// aggPrefix prefixes the planner's aggregate output names: "sub_" on
	// the GROUP BY form a correlated scalar subquery is rewritten to.
	aggPrefix string
}

func (*SelectStmt) astNode() {}

// SelectItem is one output expression with an optional alias; Star marks
// SELECT *.
type SelectItem struct {
	Expr  ExprNode
	Alias string
	Star  bool
}

// TableRef is one FROM entry: either a named table or a derived table.
type TableRef struct {
	Table    string
	Alias    string
	Subquery *SelectStmt // non-nil for derived tables
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr ExprNode
	Desc bool
}

// ExprNode is an expression AST node.
type ExprNode interface {
	Node
	exprNode()
}

// Ident is a possibly-qualified column reference.
type Ident struct {
	Qual string // table or alias; may be empty
	Name string
}

func (*Ident) astNode()  {}
func (*Ident) exprNode() {}

func (id *Ident) String() string {
	if id.Qual == "" {
		return id.Name
	}
	return id.Qual + "." + id.Name
}

// Lit is a literal: number, string, boolean or NULL.
type Lit struct {
	Num   float64
	IsInt bool
	Int   int64
	Str   string
	Bool  bool
	Kind  LitKind
}

// LitKind discriminates literal types.
type LitKind uint8

// Literal kinds.
const (
	LitNumber LitKind = iota
	LitString
	LitBool
	LitNull
)

func (*Lit) astNode()  {}
func (*Lit) exprNode() {}

// BinOp is a binary operator application (arithmetic, comparison, logic).
type BinOp struct {
	Op   string // "+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	L, R ExprNode
}

func (*BinOp) astNode()  {}
func (*BinOp) exprNode() {}

// UnOp is unary minus or NOT.
type UnOp struct {
	Op string // "-", "NOT"
	E  ExprNode
}

func (*UnOp) astNode()  {}
func (*UnOp) exprNode() {}

// FuncCall is a scalar or aggregate function call; Star marks COUNT(*),
// Distinct marks COUNT(DISTINCT x).
type FuncCall struct {
	Name     string
	Args     []ExprNode
	Star     bool
	Distinct bool
}

func (*FuncCall) astNode()  {}
func (*FuncCall) exprNode() {}

// CaseExpr is a searched CASE.
type CaseExpr struct {
	Whens []WhenClause
	Else  ExprNode
}

// WhenClause is one WHEN...THEN arm.
type WhenClause struct {
	Cond ExprNode
	Then ExprNode
}

func (*CaseExpr) astNode()  {}
func (*CaseExpr) exprNode() {}

// InExpr tests membership in a literal list or a subquery.
type InExpr struct {
	E    ExprNode
	List []ExprNode  // non-empty for IN (a, b, ...)
	Sub  *SelectStmt // non-nil for IN (SELECT ...)
	Inv  bool        // NOT IN (lists only; NOT IN subquery needs set difference)
}

func (*InExpr) astNode()  {}
func (*InExpr) exprNode() {}

// BetweenExpr is x BETWEEN lo AND hi (sugar for two comparisons).
type BetweenExpr struct {
	E, Lo, Hi ExprNode
	Inv       bool
}

func (*BetweenExpr) astNode()  {}
func (*BetweenExpr) exprNode() {}

// Subquery is a scalar subquery used as an expression operand.
type Subquery struct {
	Stmt *SelectStmt
}

func (*Subquery) astNode()  {}
func (*Subquery) exprNode() {}

// LikeExpr is a simple LIKE pattern match ('%' wildcards only).
type LikeExpr struct {
	E       ExprNode
	Pattern string
	Inv     bool
}

func (*LikeExpr) astNode()  {}
func (*LikeExpr) exprNode() {}

// inspect walks the expression tree depth-first, in the manner of
// go/ast.Inspect: it calls visit on each node, and descends into the node's
// operands only when visit returns true. A subquery's statement is its own
// scope and is not entered.
func inspect(e ExprNode, visit func(ExprNode) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch t := e.(type) {
	case *BinOp:
		inspect(t.L, visit)
		inspect(t.R, visit)
	case *UnOp:
		inspect(t.E, visit)
	case *FuncCall:
		for _, a := range t.Args {
			inspect(a, visit)
		}
	case *CaseExpr:
		for _, w := range t.Whens {
			inspect(w.Cond, visit)
			inspect(w.Then, visit)
		}
		inspect(t.Else, visit)
	case *InExpr:
		inspect(t.E, visit)
		for _, item := range t.List {
			inspect(item, visit)
		}
	case *BetweenExpr:
		inspect(t.E, visit)
		inspect(t.Lo, visit)
		inspect(t.Hi, visit)
	case *LikeExpr:
		inspect(t.E, visit)
	}
}
