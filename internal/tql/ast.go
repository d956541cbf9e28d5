package tql

import (
	"fmt"
	"strings"
)

// Expr is a TQL expression node.
type Expr interface {
	String() string
}

// NumberLit is a numeric literal.
type NumberLit float64

func (n NumberLit) String() string { return trimFloat(float64(n)) }

// StringLit is a quoted string. In array-function argument position a
// string may name a tensor path (the paper's IOU(boxes, "training/boxes")).
type StringLit string

func (s StringLit) String() string { return fmt.Sprintf("%q", string(s)) }

// BoolLit is TRUE or FALSE.
type BoolLit bool

func (b BoolLit) String() string {
	if b {
		return "TRUE"
	}
	return "FALSE"
}

// Ident references a tensor (or group path) by name.
type Ident string

func (i Ident) String() string { return string(i) }

// ArrayLit is an inline array [e1, e2, ...].
type ArrayLit []Expr

func (a ArrayLit) String() string {
	parts := make([]string, len(a))
	for i, e := range a {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Unary is a prefix operator application (-x, NOT x).
type Unary struct {
	Op string
	X  Expr
}

func (u Unary) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.X) }

// Binary is an infix operator application.
type Binary struct {
	Op   string
	L, R Expr
}

func (b Binary) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }

// Call is a function invocation.
type Call struct {
	Name string
	Args []Expr
}

func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}

// IndexSpec is one axis selector inside brackets: a point index or a slice.
type IndexSpec struct {
	// Slice marks lo:hi form; Point holds a single index otherwise.
	Slice  bool
	Point  Expr
	Lo, Hi Expr // nil = open bound
}

func (s IndexSpec) String() string {
	if !s.Slice {
		return s.Point.String()
	}
	lo, hi := "", ""
	if s.Lo != nil {
		lo = s.Lo.String()
	}
	if s.Hi != nil {
		hi = s.Hi.String()
	}
	return lo + ":" + hi
}

// Index is NumPy-style indexing/slicing: x[a:b, c, :] (§4.4).
type Index struct {
	X     Expr
	Specs []IndexSpec
}

func (ix Index) String() string {
	parts := make([]string, len(ix.Specs))
	for i, s := range ix.Specs {
		parts[i] = s.String()
	}
	return fmt.Sprintf("%s[%s]", ix.X, strings.Join(parts, ", "))
}

// Selector is one SELECT output: an expression with an optional alias.
type Selector struct {
	Expr  Expr
	Alias string
}

func (s Selector) String() string {
	if s.Alias != "" {
		return fmt.Sprintf("%s as %s", s.Expr, s.Alias)
	}
	return s.Expr.String()
}

// Query is a parsed TQL statement.
type Query struct {
	// Star selects all visible tensors (SELECT *).
	Star      bool
	Selectors []Selector
	// From names the dataset (informational; execution binds a Dataset).
	From string
	// Where filters rows.
	Where Expr
	// GroupBy sorts rows so equal keys are adjacent.
	GroupBy Expr
	// OrderBy sorts rows by key; OrderDesc reverses.
	OrderBy   Expr
	OrderDesc bool
	// ArrangeBy interleaves key groups round-robin, balancing the stream
	// across classes (§4.4, Fig 5 "ARRANGE BY labels").
	ArrangeBy Expr
	// SampleBy draws a weighted sample of the surviving rows.
	SampleBy Expr
	// Limit < 0 means no limit.
	Limit  int
	Offset int
	// Version pins the query to a commit (§4.4 versioned queries).
	Version string
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// String reconstructs a canonical query text.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Star {
		sb.WriteString("*")
	} else {
		parts := make([]string, len(q.Selectors))
		for i, s := range q.Selectors {
			parts[i] = s.String()
		}
		sb.WriteString(strings.Join(parts, ", "))
	}
	if q.From != "" {
		sb.WriteString(" FROM " + q.From)
	}
	if q.Where != nil {
		sb.WriteString(" WHERE " + q.Where.String())
	}
	if q.GroupBy != nil {
		sb.WriteString(" GROUP BY " + q.GroupBy.String())
	}
	if q.OrderBy != nil {
		sb.WriteString(" ORDER BY " + q.OrderBy.String())
		if q.OrderDesc {
			sb.WriteString(" DESC")
		}
	}
	if q.ArrangeBy != nil {
		sb.WriteString(" ARRANGE BY " + q.ArrangeBy.String())
	}
	if q.SampleBy != nil {
		sb.WriteString(" SAMPLE BY " + q.SampleBy.String())
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&sb, " OFFSET %d", q.Offset)
	}
	if q.Version != "" {
		fmt.Fprintf(&sb, " VERSION %q", q.Version)
	}
	return sb.String()
}

// inspect visits x and its subexpressions in evaluation order, each node
// before its operands, and stops as soon as visit returns false; it reports
// whether it visited everything. A nil x visits nothing.
func inspect(x Expr, visit func(Expr) bool) bool {
	if x == nil {
		return true
	}
	if !visit(x) {
		return false
	}
	var kids []Expr
	switch n := x.(type) {
	case Unary:
		kids = []Expr{n.X}
	case Binary:
		kids = []Expr{n.L, n.R}
	case ArrayLit:
		kids = n
	case Call:
		kids = n.Args
	case Index:
		kids = []Expr{n.X}
		for _, s := range n.Specs {
			kids = append(kids, s.Point, s.Lo, s.Hi)
		}
	}
	for _, k := range kids {
		if !inspect(k, visit) {
			return false
		}
	}
	return true
}
