package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/store"
)

// streamSize is the stream workload's geometry. Segments hold
// 1<<segBits rows; every round appends batchesPerRound batches of
// batchRows rows, exactly one segment, and then retains windowSegs
// segments, dropping exactly one. The prefill is exactly one window,
// so for the first maxRounds rounds the segment a retention drops was
// written before the store was reopened out of core; a run stops there
// even if its time is not up.
//
// The live feed replays the prefill's last replayRows rows (whole
// epochs of the failure period) again and again, shifted forward in
// time, so the stream never runs out and its anomalies never stop.
type streamSize struct {
	segBits         uint
	batchRows       int
	windowSegs      int
	replayRows      int
	suspectWindows  int
	poolBytes       int64
	recoverReopens  int
	batchesPerRound int
}

func (s streamSize) segRows() int    { return 1 << s.segBits }
func (s streamSize) windowRows() int { return s.windowSegs * s.segRows() }
func (s streamSize) maxRounds() int  { return s.windowSegs }

// syncEvery is the stream's flush policy: the WAL is fsynced every
// fourth acknowledged batch, so a crash loses at most the last three.
const syncEvery = 4

// staleNote ties the stream's expected failures to the program fault
// that causes them.
const staleNote = "ROADMAP item 1(a): store.RetainCtx unlinks segment files that a live pre-retention snapshot still references"

// runStream is the monitoring loop of examples/sensor_stream on a
// durable store reopened out of core: each cycle appends a batch,
// advances the Figure 4 result (exec.Advance) and the previous Debug
// (core.DebugAdvance); each round ends with a retention at the row
// horizon and a query of the snapshot held from before it. At the end
// the data directory is closed and reopened.
func runStream(r *runner) error {
	size := streamSize{segBits: 12, batchRows: 1024, windowSegs: 128, replayRows: 54 * 3000, suspectWindows: 4, poolBytes: 256 << 20, recoverReopens: 3}
	if r.cfg.toy {
		size = streamSize{segBits: 10, batchRows: 256, windowSegs: 48, replayRows: 54 * 300, suspectWindows: 2, poolBytes: 64 << 20, recoverReopens: 2}
	}
	size.batchesPerRound = size.segRows() / size.batchRows

	trace, truth := datasets.Intel(datasets.IntelConfig{Rows: size.windowRows(), Seed: r.cfg.seed, FailingMotes: 6, FailAfterFrac: 0.02})
	full := frameOf(trace, truth)
	stmt, err := sqlparse.Parse(datasets.IntelWindowSQL)
	if err != nil {
		return err
	}
	dir, err := dataDir(r.cfg.workDir, "stream")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := store.Options{SyncEvery: syncEvery, MaxResidentBytes: size.poolBytes, Logf: quietLog}
	cfs := &countFS{}
	opts.FS = cfs

	var st *store.DB
	var opens []float64
	err = r.setup(3, func() (func(), error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := loadFrame(dir, "readings", full, size.segBits, cfs); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		st, err = store.Open(dir, opts)
		opens = append(opens, ms(time.Since(start)))
		return func() { _ = st.Close() }, err
	})
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()

	// The oracle's view of the table: stream rows [win.lo, win.n).
	win := newFrame(full.schema)
	win.copyRows(full, 0, full.n)
	q := intelAnalysis(nil, win).q
	metric := errmetric.TooHigh{C: 70}

	s := &streamState{r: r, size: size, st: st, cfs: cfs, full: full, win: win, q: q, stmt: stmt, metric: metric}
	if err := r.phases(s.round); err != nil {
		return err
	}
	if r.tr != nil {
		t, err := st.Eng().Table("readings")
		if err != nil {
			return err
		}
		s.takeFigures(t)
	}
	if s.staleFailed > 0 {
		r.notef("stream: %d stale-snapshot queries failed, one a round (%s): %v", s.staleFailed, staleNote, s.staleErr)
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	recoverMS, err := s.checkRecovery(dir, opts)
	if err != nil {
		return err
	}

	r.e2eCommon()
	if r.tr == nil {
		return nil
	}
	r.layerCommon()
	r.layer["e2e.append_p50_ms"] = r.p50("append")
	r.layer["e2e.recover_ms"] = recoverMS
	r.layer["store.open_ms"] = median(opens)
	r.layer["predicate.shared_clauses"] = float64(sharedClauses(st.Eng()))
	r.layer["exec.advance_fallbacks"] = r.total("exec.advance_fallbacks")
	if n := r.total("batches"); n > 0 {
		r.layer["store.fsyncs_per_batch"] = r.total("append_fsyncs") / n
		r.layer["store.bytes_written_per_row"] = r.total("append_bytes") / (n * float64(size.batchRows))
	}
	if ps := s.pool; ps != nil {
		if ps.Hits+ps.Misses > 0 {
			r.layer["store.pool_hit_ratio"] = float64(ps.Hits) / float64(ps.Hits+ps.Misses)
		}
		r.layer["store.pool_evictions"] = float64(ps.Evictions)
	}
	r.layer["e2e.disk_bytes_per_row"] = s.diskPerRow
	r.layer["engine.retained_segments"] = float64(s.segs)
	r.layer["engine.approx_bytes"] = float64(s.bytes)
	return nil
}

// streamState is the monitoring loop's carried state.
type streamState struct {
	r      *runner
	size   streamSize
	st     *store.DB
	cfs    *countFS
	full   *frame // the generated prefill
	win    *frame // the oracle's copy of the stream; rows below win.lo are retained away
	q      *query
	stmt   *sqlparse.SelectStmt
	metric errmetric.Metric

	res *exec.Result
	dbg *core.DebugResult
	// suspects are the w30 keys of the windows the round debugs.
	suspects []string

	staleFailed int
	staleErr    error
	// figures taken at the end of the run, for the traced output
	pool       *store.PoolStats
	diskPerRow float64
	segs       int
	bytes      int
}

// round runs batchesPerRound cycles, then a retention and the
// stale-snapshot query.
func (s *streamState) round(i int) error {
	r, size := s.r, s.size
	if i >= size.maxRounds() {
		return errStop
	}
	if s.res == nil {
		t, err := s.st.Eng().Table("readings")
		if err != nil {
			return err
		}
		if s.res, err = exec.RunOn(t, s.stmt); err != nil {
			return err
		}
	}
	// The round debugs the newest complete anomalous windows; held for
	// the whole round, the question stays the same, so only the first
	// cycle (after the last retention) re-runs the learners.
	s.suspects = s.suspects[:0]
	rows := resultRows(s.res)
	for i := len(rows) - 2; i >= 0 && len(s.suspects) < size.suspectWindows; i-- {
		if intelAnomalous(rows[i]) {
			s.suspects = append(s.suspects, cellKey(rows[i][0]))
		}
	}
	if len(s.suspects) == 0 {
		return fmt.Errorf("the window has no anomalous group to debug")
	}
	var before *engine.Table
	for b := 0; b < size.batchesPerRound; b++ {
		t, err := s.cycle()
		if err != nil {
			return err
		}
		before = t
	}

	var after *engine.Table
	var stats engine.RetainStats
	dR, err := r.timed("retain", "store.retain", func(int) error {
		var err error
		after, stats, err = s.st.Retain("readings", engine.RetentionPolicy{MaxRows: size.windowRows()})
		return err
	})
	if err != nil {
		return err
	}
	r.cover(0, dR)
	if stats.DroppedSegments != 1 || after.NumRows() != size.windowRows() {
		r.wrongf("retention dropped %d segments and kept %d rows, want 1 and %d", stats.DroppedSegments, after.NumRows(), size.windowRows())
	}
	oldLo := s.win.lo
	s.win.lo = after.Base()

	// The stale query: the pre-retention snapshot, through exec only
	// (Debug's worker pools would not recover the load error). It is
	// not timed into any metric.
	var stale *exec.Result
	_, err = r.timed("", "exec.stale_run", func(int) error {
		var err error
		stale, err = exec.RunOn(before, s.stmt)
		return err
	})
	if err != nil {
		if !strings.Contains(err.Error(), "no such file or directory") {
			return fmt.Errorf("stale-snapshot query: unexpected error: %w", err)
		}
		r.failed++
		s.staleFailed++
		if s.staleErr == nil {
			s.staleErr = err
		}
	} else if err := s.q.check(resultRows(stale), s.q.fold(s.win, oldLo, s.win.n, nil)); err != nil {
		r.wrongf("stale-snapshot query: %v", err)
	}
	return nil
}

// cycle appends one batch, advances the result and the Debug, and
// checks both. It returns the appended version.
func (s *streamState) cycle() (*engine.Table, error) {
	r, size := s.r, s.size
	lo := s.win.n
	s.replay(size.batchRows)
	batch := s.win.rows(lo, s.win.n)
	io0 := s.cfs.snapshot()
	var grown *engine.Table
	dA, err := r.timed("append", "store.append", func(int) error {
		var err error
		grown, err = s.st.Append("readings", batch)
		return err
	})
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		io := s.cfs.snapshot().sub(io0)
		r.note("batches", 1)
		r.note("append_fsyncs", float64(io.fsyncs))
		r.note("append_bytes", float64(io.written))
	}

	var res *exec.Result
	dQ, err := r.timed("query", "exec.advance", func(int) error {
		var err error
		res, err = exec.Advance(s.res, grown)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.res = res
	if res.Plan.Fallback != "" {
		r.note("exec.advance_fallbacks", 1)
	}
	if err := s.q.check(resultRows(res), s.q.fold(s.win, s.win.lo, s.win.n, nil)); err != nil {
		r.wrongf("advance: %v", err)
	}

	suspect, err := s.suspectRows(res)
	if err != nil {
		return nil, err
	}
	req := core.DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Metric: s.metric}
	var dr *core.DebugResult
	dD, err := r.timed("debug", "", func(int) error {
		var err error
		dr, err = r.debugCall(r.roundSpan, "core.debug_advance", func() (*core.DebugResult, error) { return core.DebugAdvance(s.dbg, req) })
		return err
	})
	if err != nil {
		return nil, err
	}
	s.dbg = dr
	r.countMode(dr.Plan.Mode)
	r.cover(size.batchRows, dA+dQ+dD)
	if err := s.checkDebug(dr, req); err != nil {
		r.wrongf("debug advance: %v", err)
	}
	return grown, nil
}

// suspectRows maps the round's suspect windows to res's rows.
func (s *streamState) suspectRows(res *exec.Result) ([]int, error) {
	at := map[string]int{}
	for i, row := range resultRows(res) {
		at[cellKey(row[0])] = i
	}
	out := make([]int, len(s.suspects))
	for k, key := range s.suspects {
		i, ok := at[key]
		if !ok {
			return nil, fmt.Errorf("suspect window %s left the result", key)
		}
		out[k] = i
	}
	return out, nil
}

// replay appends the next n rows of the live feed to the oracle's
// stream: the prefill's last replayRows rows, shifted forward by one
// replay period per pass.
func (s *streamState) replay(n int) {
	f, w, size := s.full, s.win, s.size
	ts, epoch := f.col("ts"), f.col("epoch")
	// Epochs advance by one every epochSec seconds; a replay period is
	// whole epochs, so the shifted rows continue the prefill's rhythm.
	epochSec := (f.num[ts][f.n-1] - f.num[ts][0]) / (f.num[epoch][f.n-1] - f.num[epoch][0])
	periodEpochs := f.num[epoch][f.n-1] - f.num[epoch][f.n-1-size.replayRows]
	for k := 0; k < n; k++ {
		j := w.n - f.n
		src := f.n - size.replayRows + j%size.replayRows
		pass := float64(1 + j/size.replayRows)
		for c := range f.schema {
			x := f.num[c][src]
			switch c {
			case ts:
				x += pass * periodEpochs * epochSec
			case epoch:
				x += pass * periodEpochs
			}
			w.num[c] = append(w.num[c], x)
		}
		w.label = append(w.label, f.label[src])
		w.n++
	}
}

// checkDebug holds a DebugAdvance pass to its contract: a re-expanded
// pass equals a from-scratch Debug of the same request.
func (s *streamState) checkDebug(dr *core.DebugResult, req core.DebugRequest) error {
	if len(dr.Explanations) == 0 {
		return fmt.Errorf("mode %s returned no explanation", dr.Plan.Mode)
	}
	switch dr.Plan.Mode {
	case "full", "carried":
		return nil
	case "reexpanded":
	default:
		return fmt.Errorf("unknown mode %q", dr.Plan.Mode)
	}
	want, err := core.Debug(req)
	if err != nil {
		return err
	}
	if len(want.Explanations) != len(dr.Explanations) {
		return fmt.Errorf("reexpanded pass has %d explanations, from-scratch Debug %d", len(dr.Explanations), len(want.Explanations))
	}
	for i, e := range dr.Explanations {
		w := want.Explanations[i]
		if e.Pred.String() != w.Pred.String() || e.Score != w.Score {
			return fmt.Errorf("reexpanded explanation %d is %s (%v), from-scratch Debug has %s (%v)", i, e.Pred, e.Score, w.Pred, w.Score)
		}
	}
	return nil
}

// takeFigures records the store and table figures the traced output
// reports.
func (s *streamState) takeFigures(t *engine.Table) {
	s.pool = s.st.Stats().Pool
	s.segs, s.bytes = t.MemStats()
	if du, err := dirBytes(s.st.Dir()); err == nil {
		s.diskPerRow = float64(du) / float64(t.NumRows())
	}
}

// checkRecovery reopens the closed data directory recoverReopens times,
// timing each Open, and checks that it returns exactly the
// acknowledged retained window. It returns the median Open time (ms).
func (s *streamState) checkRecovery(dir string, opts store.Options) (float64, error) {
	var opens []float64
	for k := 0; k < s.size.recoverReopens; k++ {
		start := time.Now()
		st, err := store.Open(dir, opts)
		if err != nil {
			return 0, fmt.Errorf("reopen: %w", err)
		}
		opens = append(opens, ms(time.Since(start)))
		if k == 0 {
			if err := s.checkWindow(st); err != nil {
				s.r.wrongf("recovery: %v", err)
			}
		}
		if err := st.Close(); err != nil {
			return 0, fmt.Errorf("close reopened store: %w", err)
		}
	}
	return median(opens), nil
}

// checkWindow compares the recovered table with the oracle's window.
func (s *streamState) checkWindow(st *store.DB) error {
	t, err := st.Eng().Table("readings")
	if err != nil {
		return err
	}
	if t.Base() != s.win.lo || t.Version() != s.win.n {
		return fmt.Errorf("recovered rows [%d, %d), acknowledged window is [%d, %d)", t.Base(), t.Version(), s.win.lo, s.win.n)
	}
	got := newFrame(s.win.schema)
	got.appendTable(t, 0, t.NumRows())
	for c := range s.win.schema {
		for r := 0; r < got.n; r++ {
			if got.num[c][r] != s.win.num[c][s.win.lo+r] && !(math.IsNaN(got.num[c][r]) && math.IsNaN(s.win.num[c][s.win.lo+r])) {
				return fmt.Errorf("recovered row %d column %s differs", s.win.lo+r, s.win.schema[c].Name)
			}
		}
	}
	return nil
}

// copyRows appends rows [lo, hi) of src, an all-numeric frame of the
// same schema, with their labels.
func (f *frame) copyRows(src *frame, lo, hi int) {
	for c := range f.schema {
		f.num[c] = append(f.num[c], src.num[c][lo:hi]...)
	}
	f.label = append(f.label, src.label[lo:hi]...)
	f.n += hi - lo
}

// resultRows renders an exec result's table as response cells.
func resultRows(res *exec.Result) [][]any {
	out := make([][]any, res.Table.NumRows())
	row := make([]engine.Value, res.Table.NumCols())
	for i := range out {
		res.Table.RowInto(i, row)
		cells := make([]any, len(row))
		for c, v := range row {
			switch {
			case v.IsNull():
				cells[c] = nil
			case v.T == engine.TString:
				cells[c] = v.S
			default:
				cells[c] = v.Float()
			}
		}
		out[i] = cells
	}
	return out
}
