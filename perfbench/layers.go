package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/exec"
)

// cover adds one completed operation over rows table rows that took d
// to the rows_per_s tally (measured rounds only).
func (r *runner) cover(rows int, d time.Duration) {
	if r.measuring {
		r.coveredRows += float64(rows)
		r.coveredTime += d.Seconds()
	}
}

// note adds a per-layer sample; only traced rounds keep them.
func (r *runner) note(name string, v float64) {
	if r.tr != nil {
		r.notes[name] = append(r.notes[name], v)
	}
}

// mean returns the mean of the named notes (0 when none).
func (r *runner) mean(name string) float64 { return meanOf(r.notes[name]) }

// total returns the sum of the named notes.
func (r *runner) total(name string) float64 {
	t := 0.0
	for _, x := range r.notes[name] {
		t += x
	}
	return t
}

// countMode counts a Debug pass by DebugResult.Plan.Mode.
func (r *runner) countMode(mode string) { r.note("core.advance_"+mode, 1) }

// notePlan records the executor's plan counters of one query.
func (r *runner) notePlan(p exec.PlanInfo) {
	r.note("exec.segs_skipped", float64(p.SegsSkipped))
	r.note("exec.chunks_faulted", float64(p.ChunksFaulted))
	r.note("exec.residual_rows", float64(p.ResidualRows))
	r.note("exec.conjuncts_short_circuited", float64(p.FilterShortCircuited))
	boxed, masked := 0.0, 0.0
	if p.Fallback != "" || !p.Vectorized {
		boxed = 1
	}
	if p.MaskedAgg {
		masked = 1
	}
	r.note("exec.boxed_queries", boxed)
	r.note("exec.masked_agg_queries", masked)
}

// debugStages are the DebugResult.Timings keys, in pipeline order.
var debugStages = []string{"preprocess", "enumerate", "featurize", "predicates", "rank"}

// debugCall makes one Debug or DebugAdvance call under a span named
// name, with the stage times the result reports as child spans, and
// notes its size figures.
func (r *runner) debugCall(parent int, name string, call func() (*core.DebugResult, error)) (*core.DebugResult, error) {
	id := r.tr.begin(name, parent)
	alloc0 := allocBytes()
	dr, err := call()
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	r.note("runtime.alloc_bytes_per_debug", float64(allocBytes()-alloc0))
	for _, st := range debugStages {
		r.tr.child("core."+st, id, dr.Timings[st])
	}
	r.note("core.candidates", float64(dr.Candidates))
	r.note("core.lineage_rows", float64(len(dr.F)))
	return dr, nil
}

// layerCommon fills the per-layer figures every workload derives the
// same way from spans and notes.
func (r *runner) layerCommon() {
	if r.tr == nil {
		return
	}
	for _, name := range []string{"core.debug", "influence.rank", "exec.run", "exec.clean", "exec.advance", "store.append", "store.retain"} {
		r.layer[name+"_ms"] = r.spanP50(name)
	}
	// A DebugAdvance span stands in for core.debug where no plain Debug
	// ran (the stream workload).
	if r.layer["core.debug_ms"] == 0 {
		r.layer["core.debug_ms"] = r.spanP50("core.debug_advance")
	}
	for _, st := range debugStages {
		r.layer["core."+st+"_ms"] = r.spanMean("core." + st)
	}
	for _, name := range []string{"core.candidates", "core.lineage_rows",
		"exec.segs_skipped", "exec.chunks_faulted", "exec.residual_rows",
		"exec.conjuncts_short_circuited", "exec.boxed_queries", "exec.masked_agg_queries",
		"runtime.alloc_bytes_per_debug", "runtime.alloc_bytes_per_query"} {
		r.layer[name] = r.mean(name)
	}
	for _, mode := range []string{"full", "carried", "reexpanded"} {
		r.layer["core.advance_"+mode] = r.total("core.advance_" + mode)
	}
	for _, name := range []string{"server.query_overhead", "server.debug_overhead", "server.clean_overhead"} {
		if xs := r.notes[name]; len(xs) > 0 {
			r.layer[name+"_ms"] = median(xs)
		}
	}
	r.layer["e2e.debug_p50_ms"] = r.p50("debug")
	r.layer["e2e.clean_p50_ms"] = r.p50("clean")
	r.finishTrace()
}

// spanMean is the mean duration of the named spans (0 when none): the
// stage spans of carried passes are zero-length, so their mean over all
// passes, not the median, shows the stage's cost per pass.
func (r *runner) spanMean(name string) float64 {
	return meanOf(r.tr.durations(name))
}

// e2eCommon fills the end-to-end figures every workload derives the
// same way.
func (r *runner) e2eCommon() {
	r.e2e["query_p50_ms"] = r.p50("query")
	r.e2e["round_p50_ms"] = median(r.roundOps[false])
	if r.coveredTime > 0 {
		r.e2e["rows_per_s"] = r.coveredRows / r.coveredTime
	}
}
