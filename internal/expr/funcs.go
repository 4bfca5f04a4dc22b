package expr

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"iolap/internal/bootstrap"
	"iolap/internal/rel"
)

// ScalarFunc describes a (possibly user-defined) scalar function. The paper
// supports UDFs inside online queries (Section 1, workload C6/C7); they work
// here under every resolver — a replicate calls Fn on replicate arguments —
// and intervals use IntervalFn when provided or the conservative full range.
type ScalarFunc struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 for variadic
	RetType rel.Kind
	// Args declares the kind each argument must have; the last entry also
	// covers any further arguments of a variadic function. NewFunc
	// rejects a call whose argument the function cannot take. UDFs leave
	// it nil and are not checked.
	Args []ArgKind
	Fn   func(args []rel.Value) rel.Value
	// IntervalFn, when non-nil, propagates variation ranges through the
	// function; an argument that is not numeric reaches it as the full
	// line, and a call with a NULL argument never reaches it unless the
	// function skips NULLs (Func.Interval). Omitting it is always sound: unknown
	// ranges widen to Full, which can only enlarge the non-deterministic
	// set, never corrupt results.
	IntervalFn func(args []bootstrap.Interval) bootstrap.Interval
	// SkipsNull marks a function whose Fn ignores NULL arguments (LEAST,
	// GREATEST), so a NULL argument does not make the call NULL.
	SkipsNull bool
}

// ArgKind is the kind of value an operand must have for the evaluator to
// take it. NULL is admitted everywhere: the operators and builtins map a
// NULL operand to NULL (or false) before they read its payload.
type ArgKind uint8

// Argument kinds.
const (
	NumKind ArgKind = iota // INT or FLOAT
	IntKind                // INT
	StrKind                // STRING
)

func (want ArgKind) admits(k rel.Kind) bool {
	switch want {
	case IntKind:
		return k == rel.KInt || k == rel.KNull
	case StrKind:
		return k == rel.KString || k == rel.KNull
	}
	// A lineage reference resolves to an aggregate's number.
	return k == rel.KInt || k == rel.KFloat || k == rel.KRef || k == rel.KNull
}

// CheckOperand rejects operand e of op when its static kind is one the
// evaluator would panic on where want is required.
func CheckOperand(op string, want ArgKind, e Expr) error {
	if want.admits(e.Type()) {
		return nil
	}
	return fmt.Errorf("expr: %s cannot take the %s operand %s", op, e.Type(), e)
}

// UDFPanic is what a panic inside user-supplied code — a UDF's function, a
// UDAF's state — is re-raised as (GuardUDF). core.Engine.Step and
// exec.Executor.Run return it as the query's error, so one bad function fails
// its query rather than the process; any other panic is an engine bug and
// keeps unwinding.
type UDFPanic struct {
	Func  string
	Value interface{}
}

func (p UDFPanic) Error() string {
	return fmt.Sprintf("user function %s panicked: %v", p.Func, p.Value)
}

// GuardUDF, deferred around a call into user code, re-raises a panic as a
// UDFPanic naming the function.
func GuardUDF(name string) {
	if r := recover(); r != nil {
		if _, ok := r.(UDFPanic); !ok {
			r = UDFPanic{Func: name, Value: r}
		}
		panic(r)
	}
}

// Registry maps function names to implementations. The zero value is empty;
// NewRegistry returns one preloaded with the builtins.
type Registry struct {
	mu  sync.RWMutex
	fns map[string]*ScalarFunc
}

// NewRegistry returns a registry containing the builtin functions.
func NewRegistry() *Registry {
	r := &Registry{fns: make(map[string]*ScalarFunc)}
	for _, f := range builtins() {
		f := f
		r.fns[f.Name] = &f
	}
	return r
}

// Register installs (or replaces) a scalar function; names are
// case-insensitive. IF is reserved: the SQL front end plans it as a CASE,
// so a function of that name would never be called.
func (r *Registry) Register(f ScalarFunc) error {
	if f.Name == "" || f.Fn == nil {
		return fmt.Errorf("expr: invalid function registration %q", f.Name)
	}
	if strings.EqualFold(f.Name, "IF") {
		return fmt.Errorf("expr: %q is reserved: IF is planned as a CASE", f.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fns[strings.ToUpper(f.Name)] = &f
	return nil
}

// Lookup finds a function by name.
func (r *Registry) Lookup(name string) (*ScalarFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.fns[strings.ToUpper(name)]
	return f, ok
}

func num1(name string, fn func(float64) float64, ivFn func(bootstrap.Interval) bootstrap.Interval) ScalarFunc {
	sf := ScalarFunc{
		Name: name, MinArgs: 1, MaxArgs: 1, RetType: rel.KFloat, Args: []ArgKind{NumKind},
		Fn: func(args []rel.Value) rel.Value {
			if args[0].IsNull() {
				return rel.Null()
			}
			return rel.Float(fn(args[0].Float()))
		},
	}
	if ivFn != nil {
		sf.IntervalFn = func(args []bootstrap.Interval) bootstrap.Interval {
			return ivFn(args[0])
		}
	}
	return sf
}

func monotone(fn func(float64) float64) func(bootstrap.Interval) bootstrap.Interval {
	return func(iv bootstrap.Interval) bootstrap.Interval {
		lo, hi := fn(iv.Lo), fn(iv.Hi)
		if lo > hi {
			lo, hi = hi, lo
		}
		return bootstrap.Interval{Lo: lo, Hi: hi}
	}
}

func builtins() []ScalarFunc {
	return []ScalarFunc{
		num1("ABS", math.Abs, func(iv bootstrap.Interval) bootstrap.Interval {
			if iv.Contains(0) {
				return bootstrap.Interval{Lo: 0, Hi: math.Max(math.Abs(iv.Lo), math.Abs(iv.Hi))}
			}
			lo, hi := math.Abs(iv.Lo), math.Abs(iv.Hi)
			if lo > hi {
				lo, hi = hi, lo
			}
			return bootstrap.Interval{Lo: lo, Hi: hi}
		}),
		num1("SQRT", func(x float64) float64 {
			if x < 0 {
				return math.NaN()
			}
			return math.Sqrt(x)
		}, monotone(func(x float64) float64 {
			if x < 0 {
				return 0
			}
			return math.Sqrt(x)
		})),
		num1("LN", func(x float64) float64 {
			if x <= 0 {
				return math.Inf(-1)
			}
			return math.Log(x)
		}, nil),
		num1("EXP", math.Exp, monotone(math.Exp)),
		num1("FLOOR", math.Floor, monotone(math.Floor)),
		num1("CEIL", math.Ceil, monotone(math.Ceil)),
		num1("SIGN", func(x float64) float64 {
			switch {
			case x > 0:
				return 1
			case x < 0:
				return -1
			}
			return 0
		}, nil),
		{
			Name: "ROUND", MinArgs: 1, MaxArgs: 2, RetType: rel.KFloat,
			Args: []ArgKind{NumKind, IntKind},
			Fn: func(args []rel.Value) rel.Value {
				if args[0].IsNull() {
					return rel.Null()
				}
				x := args[0].Float()
				if len(args) == 2 && !args[1].IsNull() {
					p := math.Pow(10, float64(args[1].Int()))
					return rel.Float(math.Round(x*p) / p)
				}
				return rel.Float(math.Round(x))
			},
		},
		{
			Name: "POW", MinArgs: 2, MaxArgs: 2, RetType: rel.KFloat,
			Args: []ArgKind{NumKind},
			Fn: func(args []rel.Value) rel.Value {
				if args[0].IsNull() || args[1].IsNull() {
					return rel.Null()
				}
				return rel.Float(math.Pow(args[0].Float(), args[1].Float()))
			},
		},
		{
			Name: "GREATEST", MinArgs: 2, MaxArgs: -1, RetType: rel.KFloat,
			Args:      []ArgKind{NumKind},
			SkipsNull: true,
			Fn: func(args []rel.Value) rel.Value {
				best := math.Inf(-1)
				for _, a := range args {
					if a.IsNull() {
						continue
					}
					if v := a.Float(); v > best {
						best = v
					}
				}
				return rel.Float(best)
			},
			IntervalFn: func(args []bootstrap.Interval) bootstrap.Interval {
				out := args[0]
				for _, iv := range args[1:] {
					out.Lo = math.Max(out.Lo, iv.Lo)
					out.Hi = math.Max(out.Hi, iv.Hi)
				}
				return out
			},
		},
		{
			Name: "LEAST", MinArgs: 2, MaxArgs: -1, RetType: rel.KFloat,
			Args:      []ArgKind{NumKind},
			SkipsNull: true,
			Fn: func(args []rel.Value) rel.Value {
				best := math.Inf(1)
				for _, a := range args {
					if a.IsNull() {
						continue
					}
					if v := a.Float(); v < best {
						best = v
					}
				}
				return rel.Float(best)
			},
			IntervalFn: func(args []bootstrap.Interval) bootstrap.Interval {
				out := args[0]
				for _, iv := range args[1:] {
					out.Lo = math.Min(out.Lo, iv.Lo)
					out.Hi = math.Min(out.Hi, iv.Hi)
				}
				return out
			},
		},
		{
			Name: "COALESCE", MinArgs: 1, MaxArgs: -1, RetType: rel.KFloat,
			Fn: func(args []rel.Value) rel.Value {
				for _, a := range args {
					if !a.IsNull() {
						return a
					}
				}
				return rel.Null()
			},
		},
		{
			Name: "UPPER", MinArgs: 1, MaxArgs: 1, RetType: rel.KString,
			Args: []ArgKind{StrKind},
			Fn: func(args []rel.Value) rel.Value {
				if args[0].IsNull() {
					return rel.Null()
				}
				return rel.String(strings.ToUpper(args[0].Str()))
			},
		},
		{
			Name: "LOWER", MinArgs: 1, MaxArgs: 1, RetType: rel.KString,
			Args: []ArgKind{StrKind},
			Fn: func(args []rel.Value) rel.Value {
				if args[0].IsNull() {
					return rel.Null()
				}
				return rel.String(strings.ToLower(args[0].Str()))
			},
		},
		{
			Name: "LENGTH", MinArgs: 1, MaxArgs: 1, RetType: rel.KInt,
			Args: []ArgKind{StrKind},
			Fn: func(args []rel.Value) rel.Value {
				if args[0].IsNull() {
					return rel.Null()
				}
				return rel.Int(int64(len(args[0].Str())))
			},
		},
		{
			Name: "SUBSTR", MinArgs: 3, MaxArgs: 3, RetType: rel.KString,
			Args: []ArgKind{StrKind, IntKind},
			Fn: func(args []rel.Value) rel.Value {
				if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
					return rel.Null()
				}
				s := args[0].Str()
				start := int(args[1].Int()) - 1 // SQL is 1-based
				n := int(args[2].Int())
				if start < 0 {
					start = 0
				}
				if start > len(s) {
					start = len(s)
				}
				end := start + n
				if end > len(s) {
					end = len(s)
				}
				return rel.String(s[start:end])
			},
		},
		{
			Name: "CONCAT", MinArgs: 1, MaxArgs: -1, RetType: rel.KString,
			Fn: func(args []rel.Value) rel.Value {
				var b strings.Builder
				for _, a := range args {
					if !a.IsNull() {
						b.WriteString(a.String())
					}
				}
				return rel.String(b.String())
			},
		},
	}
}

// Func is a scalar function call node.
type Func struct {
	F    *ScalarFunc
	Args []Expr
}

// NewFunc builds a call after validating its arity and, when the function
// declares them, its argument kinds.
func NewFunc(f *ScalarFunc, args []Expr) (*Func, error) {
	if len(args) < f.MinArgs || (f.MaxArgs >= 0 && len(args) > f.MaxArgs) {
		return nil, fmt.Errorf("expr: %s expects %d..%d args, got %d",
			f.Name, f.MinArgs, f.MaxArgs, len(args))
	}
	for i, a := range args {
		if len(f.Args) == 0 {
			break
		}
		if err := CheckOperand(f.Name, f.Args[min(i, len(f.Args)-1)], a); err != nil {
			return nil, err
		}
	}
	return &Func{F: f, Args: args}, nil
}

func (e *Func) Eval(row []rel.Value, res Resolver) rel.Value {
	args := make([]rel.Value, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.Eval(row, res)
	}
	return e.F.Fn(args)
}

// Interval asks only the numeric arguments for ranges; any other argument
// reaches IntervalFn as the full line. An argument that is a settled NULL
// makes the call NULL, whose range is the full line, unless the function
// skips NULLs (SkipsNull): a monotone IntervalFn would map that full line to
// a bounded range (ABS to [0, +inf]) and decide a comparison NULL fails.
// Without an IntervalFn the call is a point when its numeric arguments are
// points and its other arguments are settled (evalSettled), and the full
// line otherwise: unknown propagation only costs recomputation, never
// correctness.
func (e *Func) Interval(row []rel.Value, res Resolver) bootstrap.Interval {
	point, null := true, false
	args := make([]bootstrap.Interval, len(e.Args))
	for i, a := range e.Args {
		if isNumeric(a.Type()) {
			args[i] = a.Interval(row, res)
			point = point && args[i].IsPoint()
			if args[i] == bootstrap.Full() {
				// A NULL numeric operand ranges over the full line too.
				v, settled := evalSettled(a, row, res)
				null = null || (settled && v.IsNull())
			}
		} else {
			args[i] = bootstrap.Full()
			v, settled := evalSettled(a, row, res)
			point = point && settled
			null = null || (settled && v.IsNull())
		}
	}
	if e.F.IntervalFn != nil {
		if null && !e.F.SkipsNull {
			return bootstrap.Full()
		}
		return e.F.IntervalFn(args)
	}
	if point {
		if v := e.Eval(row, res); v.IsNumeric() {
			return bootstrap.Point(v.Float())
		}
	}
	return bootstrap.Full()
}

func (e *Func) Cols(dst []int) []int {
	for _, a := range e.Args {
		dst = a.Cols(dst)
	}
	return dst
}

func (e *Func) Type() rel.Kind { return e.F.RetType }

func (e *Func) String() string {
	var b strings.Builder
	b.WriteString(e.F.Name)
	b.WriteByte('(')
	for i, a := range e.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}
