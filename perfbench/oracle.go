package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// This file holds the benchmark's oracles: a columnar copy of every
// generated table (a frame), plain-Go folds over it, and a small
// evaluator for the predicates Debug returns. None of it calls into the
// program beyond reading the generated rows once.

// frame is a columnar copy of a generated table. Numeric columns (int,
// float, time as unix seconds) live in num, string columns as codes
// into a per-column dictionary. Row r of the frame is stream row r of
// the table; rows below lo have been retained away.
type frame struct {
	schema engine.Schema
	n, lo  int
	num    [][]float64
	code   [][]int32
	dict   [][]string
	codeOf []map[string]int32
	label  []bool
}

func newFrame(schema engine.Schema) *frame {
	f := &frame{
		schema: schema,
		num:    make([][]float64, len(schema)),
		code:   make([][]int32, len(schema)),
		dict:   make([][]string, len(schema)),
		codeOf: make([]map[string]int32, len(schema)),
	}
	for c, col := range schema {
		if col.Type == engine.TString {
			f.codeOf[c] = map[string]int32{}
		}
	}
	return f
}

// frameOf copies rows [0, t.NumRows()) of t.
func frameOf(t *engine.Table, labels []bool) *frame {
	f := newFrame(t.Schema())
	f.appendTable(t, 0, t.NumRows())
	f.label = labels
	return f
}

func (f *frame) appendTable(t *engine.Table, lo, hi int) {
	row := make([]engine.Value, t.NumCols())
	for r := lo; r < hi; r++ {
		t.RowInto(r, row)
		f.appendRow(row)
	}
}

func (f *frame) appendRow(row []engine.Value) {
	for c, v := range row {
		if f.codeOf[c] != nil {
			code, ok := f.codeOf[c][v.S]
			if !ok {
				code = int32(len(f.dict[c]))
				f.codeOf[c][v.S] = code
				f.dict[c] = append(f.dict[c], v.S)
			}
			f.code[c] = append(f.code[c], code)
			continue
		}
		switch v.T {
		case engine.TFloat:
			f.num[c] = append(f.num[c], v.F)
		default:
			f.num[c] = append(f.num[c], float64(v.I))
		}
	}
	f.n++
}

// col returns the index of the named column; a missing column is a bug
// in the benchmark's own query text.
func (f *frame) col(name string) int {
	c := f.schema.ColIndex(name)
	if c < 0 {
		panic("perfbench: no column " + name)
	}
	return c
}

func (f *frame) str(c, r int) string { return f.dict[c][f.code[c][r]] }

// codeFor returns the code of s in string column c, or -1.
func (f *frame) codeFor(c int, s string) int32 {
	if code, ok := f.codeOf[c][s]; ok {
		return code
	}
	return -1
}

// ---------------------------------------------------------------------
// Folds

// aggDef is one aggregate of a query: fn over numeric column col (col
// is ignored by count).
type aggDef struct {
	fn  string // count, sum, avg, min, max, stddev
	col int
}

// query is a benchmark statement together with its oracle: the row
// filter, the group key rendering, the aggregates in select order and
// the output order. The SQL lists the group key (if any) first, then
// the aggregates.
type query struct {
	shape string
	sql   string
	where func(r int) bool // nil keeps every row
	key   func(r int) string
	// nkey, when set, is key's numeric form: the fold groups on it and
	// renders each group's key once.
	nkey func(r int) float64
	aggs []aggDef
	// orderByKey asks for ascending numeric keys; orderDesc >= 0 asks
	// for the aggregate at that index in descending order.
	orderByKey bool
	orderDesc  int
}

func (q *query) grouped() bool { return q.key != nil || q.nkey != nil }

// keyOf renders row r's group key.
func (q *query) keyOf(r int) string {
	if q.nkey != nil {
		return numKey(q.nkey(r))
	}
	return q.key(r)
}

// acc accumulates one group of a fold.
type acc struct {
	n                  int
	sum, sumsq, absSum float64
	min, max           float64
}

type foldResult struct {
	groups map[string][]acc // per group key, one acc per aggregate
	keys   []string         // groups in first-appearance order
}

// fold folds rows [lo, hi) of f through q, skipping rows drop matches.
func (q *query) fold(f *frame, lo, hi int, drop func(r int) bool) *foldResult {
	out := &foldResult{groups: map[string][]acc{}}
	byNum := map[float64][]acc{}
	for r := lo; r < hi; r++ {
		if q.where != nil && !q.where(r) {
			continue
		}
		if drop != nil && drop(r) {
			continue
		}
		var g []acc
		ok := false
		k := ""
		if q.nkey != nil {
			x := q.nkey(r)
			if g, ok = byNum[x]; !ok {
				k = numKey(x)
			}
		} else {
			if q.key != nil {
				k = q.key(r)
			}
			g, ok = out.groups[k]
		}
		if !ok {
			g = make([]acc, len(q.aggs))
			for i := range g {
				g[i] = acc{min: math.Inf(1), max: math.Inf(-1)}
			}
			out.groups[k] = g
			out.keys = append(out.keys, k)
			if q.nkey != nil {
				byNum[q.nkey(r)] = g
			}
		}
		for i, a := range q.aggs {
			x := 0.0
			if a.fn != "count" {
				x = f.num[a.col][r]
			}
			g[i].n++
			g[i].sum += x
			g[i].sumsq += x * x
			g[i].absSum += math.Abs(x)
			g[i].min = math.Min(g[i].min, x)
			g[i].max = math.Max(g[i].max, x)
		}
	}
	if !q.grouped() && len(out.keys) == 0 {
		// An ungrouped aggregate yields one row even over no input.
		g := make([]acc, len(q.aggs))
		out.groups[""] = g
		out.keys = append(out.keys, "")
	}
	return out
}

// value returns the aggregate's exact answer and the tolerance a
// correct engine may differ by (summation order differs between the
// fold and the shard-parallel scan).
func (a acc) value(fn string) (want, tol float64) {
	const rel = 1e-9
	switch fn {
	case "count":
		return float64(a.n), 0
	case "sum":
		return a.sum, rel * (a.absSum + 1)
	case "avg":
		if a.n == 0 {
			return math.NaN(), 0
		}
		return a.sum / float64(a.n), rel * (a.absSum/float64(a.n) + 1)
	case "min":
		return a.min, 0
	case "max":
		return a.max, 0
	case "stddev":
		if a.n < 2 {
			return math.NaN(), 0
		}
		v := (a.sumsq - a.sum*a.sum/float64(a.n)) / float64(a.n-1)
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v), 1e-6 * (math.Sqrt(a.sumsq/float64(a.n)) + 1)
	}
	panic("perfbench: unknown aggregate " + fn)
}

// numKey renders a numeric group key the way response cells render.
func numKey(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// cellKey renders a response cell as a group key.
func cellKey(v any) string {
	switch x := v.(type) {
	case float64:
		return numKey(x)
	case string:
		return x
	case nil:
		return "NULL"
	}
	return fmt.Sprint(v)
}

// cellFloat reads a numeric response cell; NULL reads as NaN.
func cellFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case nil:
		return math.NaN(), true
	}
	return 0, false
}

// check compares a query's output rows (key first when grouped, then
// the aggregates) with the fold: the same groups, exact keys and
// counts, sums within tolerance, and the requested order.
func (q *query) check(rows [][]any, want *foldResult) error {
	if len(rows) != len(want.keys) {
		return fmt.Errorf("%s: %d groups, oracle has %d", q.shape, len(rows), len(want.keys))
	}
	off := 0
	if q.grouped() {
		off = 1
	}
	seen := make(map[string]bool, len(rows))
	prevKey, prevAgg := math.Inf(-1), math.Inf(1)
	for i, row := range rows {
		if len(row) != off+len(q.aggs) {
			return fmt.Errorf("%s: row %d has %d cells, want %d", q.shape, i, len(row), off+len(q.aggs))
		}
		k := ""
		if q.grouped() {
			k = cellKey(row[0])
		}
		g, ok := want.groups[k]
		if !ok || seen[k] {
			return fmt.Errorf("%s: unexpected or repeated group %q", q.shape, k)
		}
		seen[k] = true
		for j, a := range q.aggs {
			got, ok := cellFloat(row[off+j])
			if !ok {
				return fmt.Errorf("%s: group %q %s is not a number: %v", q.shape, k, a.fn, row[off+j])
			}
			w, tol := g[j].value(a.fn)
			if math.IsNaN(w) != math.IsNaN(got) || math.Abs(got-w) > tol {
				return fmt.Errorf("%s: group %q %s = %v, oracle %v", q.shape, k, a.fn, got, w)
			}
		}
		if q.orderByKey {
			x, err := strconv.ParseFloat(k, 64)
			if err != nil || x <= prevKey {
				return fmt.Errorf("%s: row %d key %q out of ascending order", q.shape, i, k)
			}
			prevKey = x
		}
		if q.orderDesc >= 0 {
			x, _ := cellFloat(row[off+q.orderDesc])
			w, tol := g[q.orderDesc].value(q.aggs[q.orderDesc].fn)
			if x > prevAgg+2*tol {
				return fmt.Errorf("%s: row %d (%v) out of descending order", q.shape, i, w)
			}
			prevAgg = x
		}
	}
	return nil
}

// lineage returns the rows of [lo, hi) that pass the query's filter
// and fall into one of the given groups, in row order.
func (q *query) lineage(lo, hi int, keys map[string]bool) []int {
	var out []int
	for r := lo; r < hi; r++ {
		if q.where != nil && !q.where(r) {
			continue
		}
		if keys[q.keyOf(r)] {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Predicate evaluator

// clause is one parsed explanation clause: a comparison against a
// number or string, or an IN list.
type clause struct {
	col  int
	op   string // = != < <= > >= in
	num  []float64
	strs []string
}

// pred is a conjunction of clauses.
type pred []clause

// parsePred parses the SQL rendering of an explanation, a conjunction
// of "col op literal" and "col IN (literal, ...)" clauses, against f.
func parsePred(f *frame, s string) (pred, error) {
	if s == "TRUE" {
		return nil, nil
	}
	var p pred
	for _, part := range splitTopAnd(s) {
		part = strings.TrimSpace(part)
		sp := strings.IndexByte(part, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("predicate clause %q has no operator", part)
		}
		name, rest := part[:sp], strings.TrimSpace(part[sp+1:])
		c := f.schema.ColIndex(name)
		if c < 0 {
			return nil, fmt.Errorf("predicate column %q is not in %s", name, f.schema)
		}
		cl := clause{col: c}
		var lits []string
		if up := strings.ToUpper(rest); strings.HasPrefix(up, "IN ") || strings.HasPrefix(up, "IN(") {
			cl.op = "in"
			body := strings.TrimSpace(rest[2:])
			if !strings.HasPrefix(body, "(") || !strings.HasSuffix(body, ")") {
				return nil, fmt.Errorf("bad IN list in %q", part)
			}
			lits = splitTopComma(body[1 : len(body)-1])
		} else {
			for _, op := range []string{"<=", ">=", "!=", "<>", "=", "<", ">"} {
				if strings.HasPrefix(rest, op) {
					cl.op = op
					if op == "<>" {
						cl.op = "!="
					}
					lits = []string{strings.TrimSpace(rest[len(op):])}
					break
				}
			}
			if cl.op == "" {
				return nil, fmt.Errorf("unknown operator in %q", part)
			}
		}
		for _, lit := range lits {
			lit = strings.TrimSpace(lit)
			quoted := len(lit) >= 2 && lit[0] == '\'' && lit[len(lit)-1] == '\''
			if quoted {
				lit = strings.ReplaceAll(lit[1:len(lit)-1], "''", "'")
			}
			switch {
			case f.codeOf[c] != nil:
				cl.strs = append(cl.strs, lit)
			case f.schema[c].Type == engine.TTime && quoted:
				t, err := time.Parse(time.RFC3339, lit)
				if err != nil {
					return nil, fmt.Errorf("time literal in %q: %w", part, err)
				}
				cl.num = append(cl.num, float64(t.Unix()))
			default:
				x, err := strconv.ParseFloat(lit, 64)
				if err != nil {
					return nil, fmt.Errorf("numeric literal in %q: %w", part, err)
				}
				cl.num = append(cl.num, x)
			}
		}
		p = append(p, cl)
	}
	return p, nil
}

func splitTopAnd(s string) []string {
	var out []string
	inQ, depth, start := false, 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			inQ = !inQ
		case '(':
			if !inQ {
				depth++
			}
		case ')':
			if !inQ {
				depth--
			}
		}
		if !inQ && depth == 0 && strings.HasPrefix(s[i:], " AND ") {
			out = append(out, s[start:i])
			start = i + len(" AND ")
			i = start - 1
		}
	}
	return append(out, s[start:])
}

func splitTopComma(s string) []string {
	var out []string
	inQ, start := false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			inQ = !inQ
		case ',':
			if !inQ {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

func cmpOp(op string, c int) bool {
	switch op {
	case "=", "in":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// match reports whether row r of f satisfies every clause.
func (p pred) match(f *frame, r int) bool {
	for _, cl := range p {
		ok := false
		if cl.strs != nil {
			v := f.str(cl.col, r)
			for _, s := range cl.strs {
				if cmpOp(cl.op, strings.Compare(v, s)) {
					ok = true
					break
				}
			}
		} else {
			v := f.num[cl.col][r]
			for _, x := range cl.num {
				c := 0
				if v < x {
					c = -1
				} else if v > x {
					c = 1
				}
				if cmpOp(cl.op, c) {
					ok = true
					break
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// f1 scores p against the generator's labels within rows: precision
// and recall of the rows p selects against the labelled ones.
func (p pred) f1(f *frame, rows []int) float64 {
	var tp, sel, pos int
	for _, r := range rows {
		m, l := p.match(f, r), f.label[r]
		if m {
			sel++
		}
		if l {
			pos++
		}
		if m && l {
			tp++
		}
	}
	if tp == 0 {
		return 0
	}
	prec, rec := float64(tp)/float64(sel), float64(tp)/float64(pos)
	return 2 * prec * rec / (prec + rec)
}

// median returns the middle of xs (mean of the middle two), NaN when
// empty. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
