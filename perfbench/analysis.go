package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/predicate"
	"repro/internal/sqlparse"
)

// Checked floors of the Debug and clean outputs. Debug must put an
// explanation that matches the generator's labels within the suspect
// lineage at F1 >= minTopF1 among its top three; cleaning the FEC
// walkthrough with the top explanation must remove at least
// minNegMassRemoved of the suspect days' negative mass (paper §3.2).
const (
	minTopF1          = 0.5
	minNegMassRemoved = 0.8
	zoomLimit         = 500
)

// analysis is one dataset an analyst debugs over HTTP: the statement
// with its oracle, the rule that picks the anomalous groups, and the
// Debug request that explains them.
type analysis struct {
	name string
	db   *engine.DB
	f    *frame
	q    *query
	want *foldResult
	rule func(row []any) bool // anomalous group, with a positive ε
	// suspects is how many anomalous groups a session debugs: a fixed
	// count, so every seed asks Debug for about the same work.
	suspects int
	aggCol   int // response column of the debugged aggregate
	metric   string
	c        float64
	dprime   string // SQL condition selecting D' in the suspect lineage
	// negMass: the clean check also demands the §3.2 negative-mass cut.
	negMass bool
}

func intelAnalysis(db *engine.DB, f *frame) *analysis {
	ts, temp := f.col("ts"), f.col("temperature")
	return &analysis{
		name: "intel", db: db, f: f,
		q: &query{
			shape: "figure4", sql: "SELECT bucket(epoch(ts), 1800) AS w30, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w30",
			nkey: func(r int) float64 { return math.Floor(f.num[ts][r]/1800) * 1800 },
			aggs: []aggDef{{"avg", temp}, {"stddev", temp}}, orderByKey: true, orderDesc: -1,
		},
		rule: intelAnomalous, suspects: 2,
		aggCol: 1, metric: "toohigh", c: 70, dprime: "temperature > 100",
	}
}

func fecAnalysis(db *engine.DB, f *frame) *analysis {
	cand, day, amount := f.col("candidate"), f.col("day"), f.col("amount")
	mccain := f.codeFor(cand, "McCain")
	return &analysis{
		name: "fec", db: db, f: f,
		q: &query{
			shape: "figure7", sql: "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day ORDER BY day",
			where: func(r int) bool { return f.code[cand][r] == mccain },
			nkey:  func(r int) float64 { return f.num[day][r] },
			aggs:  []aggDef{{"sum", amount}}, orderByKey: true, orderDesc: -1,
		},
		rule:     func(row []any) bool { v, _ := cellFloat(row[1]); return v < 0 },
		suspects: 5,
		aggCol:   1, metric: "toolow", c: 0, dprime: "amount < 0", negMass: true,
	}
}

// intelAnomalous marks a Figure 4 window (w30, avg_temp, std_temp)
// whose temperature spread shows a failing mote and whose average is
// above the too-high reference, so Debug has error to explain.
func intelAnomalous(row []any) bool {
	avg, _ := cellFloat(row[1])
	std, _ := cellFloat(row[2])
	return std > 10 && avg > 70
}

// prepare folds the statement once; every response is checked against
// this fold.
func (a *analysis) prepare() { a.want = a.q.fold(a.f, 0, a.f.n, nil) }

// session runs one analyst session under a fresh session id: query,
// pick a seeded subset of the anomalous groups, zoom, suggest, debug,
// clean with the top explanation, reset. Every response is checked.
func (a *analysis) session(r *runner, c *client, sid string, rng *rand.Rand) error {
	var qr queryResponse
	d, err := r.timed("query/"+a.name, "server.query", func(int) error {
		return c.post("/api/query", map[string]any{"session": sid, "sql": a.q.sql}, &qr)
	})
	if err != nil {
		return err
	}
	r.cover(a.f.n, d)
	if err := a.q.check(qr.Rows, a.want); err != nil {
		r.wrongf("%s query: %v", a.name, err)
		return nil
	}
	var res *exec.Result
	if r.tr != nil {
		if res, err = replayQuery(r, a.db, a.q, d); err != nil {
			return err
		}
	}

	var anomalous []int
	for i, row := range qr.Rows {
		if a.rule(row) {
			anomalous = append(anomalous, i)
		}
	}
	if len(anomalous) == 0 {
		return fmt.Errorf("%s: the generated data has no anomalous group to debug", a.name)
	}
	perm := rng.Perm(len(anomalous))
	suspect := make([]int, min(a.suspects, len(anomalous)))
	keys := map[string]bool{}
	for i := range suspect {
		suspect[i] = anomalous[perm[i]]
		keys[cellKey(qr.Rows[suspect[i]][0])] = true
	}
	lineage := a.q.lineage(0, a.f.n, keys)

	var zr zoomResponse
	if _, err := r.timed("zoom/"+a.name, "server.zoom", func(int) error {
		return c.post("/api/zoom", map[string]any{"session": sid, "suspect": suspect, "limit": zoomLimit}, &zr)
	}); err != nil {
		return err
	}
	a.checkZoom(r, zr, lineage)
	var sr suggestResponse
	if _, err := r.timed("suggest/"+a.name, "server.suggest", func(int) error {
		return c.post("/api/suggest", map[string]any{"session": sid, "suspect": suspect, "aggItem": a.aggCol}, &sr)
	}); err != nil {
		return err
	}
	a.checkSuggest(r, sr, qr.Rows, suspect)

	var dr debugResponse
	d, err = r.timed("debug/"+a.name, "server.debug", func(int) error {
		return c.post("/api/debug", map[string]any{
			"session": sid, "suspect": suspect, "aggItem": a.aggCol,
			"metric": a.metric, "metricParams": map[string]float64{"c": a.c}, "examplesCond": a.dprime,
		}, &dr)
	})
	if err != nil {
		return err
	}
	r.countMode(dr.Mode)
	top, ok := a.checkDebug(r, dr, lineage)
	if !ok {
		return nil
	}
	var topPred predicate.Predicate
	replayed := false
	if res != nil {
		topPred, replayed = a.replayDebug(r, d, res, suspect)
	}

	var cr queryResponse
	d, err = r.timed("clean/"+a.name, "server.clean", func(int) error {
		return c.post("/api/clean", map[string]any{"session": sid, "explanation": 0}, &cr)
	})
	if err != nil {
		return err
	}
	r.cover(a.f.n, d)
	a.checkClean(r, cr, qr.Rows, suspect, top, dr.Explanations[0].Predicate)
	if replayed && topPred.String() == dr.Explanations[0].Predicate {
		a.replayClean(r, d, res, topPred)
	}

	var rr queryResponse
	d, err = r.timed("reset/"+a.name, "server.reset", func(int) error {
		return c.post("/api/reset", map[string]any{"session": sid}, &rr)
	})
	if err != nil {
		return err
	}
	r.cover(a.f.n, d)
	if err := a.q.check(rr.Rows, a.want); err != nil {
		r.wrongf("%s reset: %v", a.name, err)
	}
	return nil
}

func (a *analysis) checkZoom(r *runner, zr zoomResponse, lineage []int) {
	want := len(lineage)
	if want > zoomLimit {
		want = zoomLimit
	}
	if len(zr.Rows) != want || zr.Truncated != (len(lineage) > zoomLimit) {
		r.wrongf("%s zoom: %d rows (truncated %v), lineage has %d", a.name, len(zr.Rows), zr.Truncated, len(lineage))
		return
	}
	in := make(map[int]bool, len(lineage))
	for _, x := range lineage {
		in[x] = true
	}
	for _, row := range zr.Rows {
		id, ok := cellFloat(row[0])
		if !ok || !in[int(id)] || !a.f.rowEquals(int(id), row[1:]) {
			r.wrongf("%s zoom: row %v is not a lineage row of the suspects", a.name, row[0])
			return
		}
	}
}

func (a *analysis) checkSuggest(r *runner, sr suggestResponse, rows [][]any, suspect []int) {
	in := map[int]bool{}
	for _, i := range suspect {
		in[i] = true
	}
	var rest, sus []float64
	for i, row := range rows {
		v, ok := cellFloat(row[a.aggCol])
		if !ok || math.IsNaN(v) {
			continue
		}
		if in[i] {
			sus = append(sus, v)
		} else {
			rest = append(rest, v)
		}
	}
	// The offered c is the median of the other groups' aggregate, and
	// the offered metric follows the suspects' median relative to it.
	want, sMed := median(rest), median(sus)
	rec := "notequal"
	switch {
	case sMed > want:
		rec = "toohigh"
	case sMed < want:
		rec = "toolow"
	}
	if sr.Recommended != rec || math.Abs(sr.SuggestedC-want) > 1e-9*(math.Abs(want)+1) {
		r.wrongf("%s suggest: %s c=%v, want %s c=%v", a.name, sr.Recommended, sr.SuggestedC, rec, want)
	}
}

// checkDebug checks a from-scratch Debug response and returns its top
// explanation parsed for the clean check.
func (a *analysis) checkDebug(r *runner, dr debugResponse, lineage []int) (pred, bool) {
	if dr.Mode != "full" || dr.LineageSize != len(lineage) || len(dr.Explanations) == 0 {
		r.wrongf("%s debug: mode %q, lineage %d (want full, %d), %d explanations", a.name, dr.Mode, dr.LineageSize, len(lineage), len(dr.Explanations))
		return nil, false
	}
	var top pred
	best := 0.0
	for i, e := range dr.Explanations {
		if i == 3 {
			break
		}
		p, err := parsePred(a.f, e.Predicate)
		if err != nil {
			r.wrongf("%s debug: %v", a.name, err)
			return nil, false
		}
		if i == 0 {
			top = p
		}
		best = math.Max(best, p.f1(a.f, lineage))
	}
	r.lowest("debug F1 of the best top-3 explanation, "+a.name, best)
	if best < minTopF1 {
		r.wrongf("%s debug: best F1 of the top three explanations is %.3f < %.2f (top: %s)", a.name, best, minTopF1, dr.Explanations[0].Predicate)
	}
	return top, true
}

// checkClean checks the cleaned result against the fold without the
// explanation's rows, and for FEC the share of negative mass removed.
func (a *analysis) checkClean(r *runner, cr queryResponse, before [][]any, suspect []int, top pred, topText string) {
	if len(cr.Applied) != 1 || cr.Applied[0] != topText {
		r.wrongf("%s clean: applied %q, want [%s]", a.name, cr.Applied, topText)
		return
	}
	want := a.q.fold(a.f, 0, a.f.n, func(row int) bool { return top.match(a.f, row) })
	if err := a.q.check(cr.Rows, want); err != nil {
		r.wrongf("%s clean: %v", a.name, err)
		return
	}
	if !a.negMass {
		return
	}
	after := map[string]float64{}
	for _, row := range cr.Rows {
		after[cellKey(row[0])], _ = cellFloat(row[a.aggCol])
	}
	var negMass, removed float64
	keys := map[string]bool{}
	for _, i := range suspect {
		k := cellKey(before[i][0])
		keys[k] = true
		b, _ := cellFloat(before[i][a.aggCol])
		removed += after[k] - b
	}
	amount := a.f.col("amount")
	for _, row := range a.q.lineage(0, a.f.n, keys) {
		if x := a.f.num[amount][row]; x < 0 {
			negMass -= x
		}
	}
	share := removed / negMass
	r.lowest("share of the suspect days' negative mass the FEC clean removed", share)
	if !(share >= minNegMassRemoved) {
		r.wrongf("%s clean: %s removed %.2f of the suspect days' negative mass, want >= %.2f", a.name, topText, share, minNegMassRemoved)
	}
}

// ---------------------------------------------------------------------
// Traced-run replays: the same call made directly, right after the
// request, so the request's time splits into server and program layers.

// replayQuery reruns q directly on db, right after the request that
// took req, and records the split and the executor's plan counters.
func replayQuery(r *runner, db *engine.DB, q *query, req time.Duration) (*exec.Result, error) {
	stmt, err := sqlparse.Parse(q.sql)
	if err != nil {
		return nil, err
	}
	var res *exec.Result
	alloc0 := allocBytes()
	d, err := r.replay("exec.run", func(int) error {
		var err error
		res, err = exec.Run(db, stmt)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("replay of %s: %w", q.sql, err)
	}
	r.note("runtime.alloc_bytes_per_query", float64(allocBytes()-alloc0))
	r.note("server.query_overhead", ms(req-d))
	r.notePlan(res.Plan)
	return res, nil
}

// replayDebug reruns the request's Debug directly and returns its top
// explanation.
func (a *analysis) replayDebug(r *runner, req time.Duration, res *exec.Result, suspect []int) (predicate.Predicate, bool) {
	metric, err := errmetric.New(a.metric, map[string]float64{"c": a.c})
	if err != nil {
		r.wrongf("%s replay: %v", a.name, err)
		return predicate.Predicate{}, false
	}
	var dr *core.DebugResult
	d, err := r.replay("bench.debug_request", func(parent int) error {
		examples, err := core.ExamplesWhere(res, suspect, a.dprime)
		if err != nil {
			return err
		}
		req := core.DebugRequest{Result: res, AggItem: a.aggCol, Suspect: suspect, Examples: examples, Metric: metric}
		dr, err = r.debugCall(parent, "core.debug", func() (*core.DebugResult, error) { return core.Debug(req) })
		return err
	})
	if err != nil {
		r.wrongf("%s replay debug: %v", a.name, err)
		return predicate.Predicate{}, false
	}
	r.note("server.debug_overhead", ms(req-d))
	ord := res.AggOrdinalOf(a.aggCol)
	if _, err := r.replay("influence.rank", func(int) error {
		_, err := influence.Rank(res, suspect, ord, metric, influence.Options{})
		return err
	}); err != nil {
		r.wrongf("%s replay influence: %v", a.name, err)
	}
	if len(dr.Explanations) == 0 {
		return predicate.Predicate{}, false
	}
	return dr.Explanations[0].Pred, true
}

func (a *analysis) replayClean(r *runner, req time.Duration, res *exec.Result, top predicate.Predicate) {
	d, err := r.replay("exec.clean", func(int) error {
		_, err := core.CleanAndRequery(res, top)
		return err
	})
	if err != nil {
		r.wrongf("%s replay clean: %v", a.name, err)
		return
	}
	r.note("server.clean_overhead", ms(req-d))
}

// rowEquals reports whether the zoom cells (source columns in schema
// order) equal frame row r.
func (f *frame) rowEquals(r int, cells []any) bool {
	if len(cells) != len(f.schema) {
		return false
	}
	for c, col := range f.schema {
		switch {
		case f.codeOf[c] != nil:
			if s, ok := cells[c].(string); !ok || s != f.str(c, r) {
				return false
			}
		case col.Type == engine.TTime:
			s, ok := cells[c].(string)
			if !ok {
				return false
			}
			t, err := time.Parse("2006-01-02T15:04:05Z", s)
			if err != nil || float64(t.Unix()) != f.num[c][r] {
				return false
			}
		default:
			if x, ok := cellFloat(cells[c]); !ok || x != f.num[c][r] {
				return false
			}
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
