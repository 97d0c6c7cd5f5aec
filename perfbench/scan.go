package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/store"
)

// scanSize is the scan workload's input: pieces FEC tables of rows
// each, generated from consecutive seeds and loaded in campaign-day
// order, as a contribution file sorted by date would arrive.
type scanSize struct{ pieces, rows int }

// poolShare sets the buffer pool to this fraction of the table's
// decoded size, so the table is larger than the program's cache.
const poolShare = 8

// runScan drives /api/query over a store-backed FEC table opened out
// of core. A round is one query of each shape the executor plans
// differently, in a seeded order with seeded constants. Every query
// opens a fresh session, so no cached result can answer it.
func runScan(r *runner) error {
	size := scanSize{pieces: 4, rows: 250_000}
	if r.cfg.toy {
		size = scanSize{pieces: 2, rows: 20_000}
	}
	f := fecFrame(r.cfg.seed, size)
	dir, err := dataDir(r.cfg.workDir, "scan")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	poolBytes := decodedBytes(f) / poolShare
	cfs := &countFS{}
	var (
		st     *store.DB
		hs     *httpServer
		opens  []float64
		closed bool
	)
	teardown := func() {
		if !closed {
			_ = hs.stop()
			_ = st.Close()
			closed = true
		}
	}
	err = r.setup(3, func() (func(), error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := loadFrame(dir, "donations", f, engine.DefaultSegmentBits, cfs); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		st, err = store.Open(dir, store.Options{MaxResidentBytes: poolBytes, FS: cfs, Logf: quietLog})
		if err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(start)))
		srv := server.New(st.Eng())
		srv.AttachStore(st)
		srv.SetSessionLimits(maxSessions, 0)
		hs, err = startHTTP(srv)
		closed = false
		return teardown, err
	})
	if err != nil {
		return err
	}
	defer teardown()

	c := newClient(hs.url)
	defer c.close()
	draw := newDraws(r.cfg.seed)
	var pool0 *store.PoolStats
	var io0 ioCounts
	queries := 0
	if err := r.phases(func(i int) error {
		if r.measuring && pool0 == nil {
			pool0, io0 = st.Stats().Pool, cfs.snapshot()
		}
		for _, k := range draw.rng.Perm(len(scanShapes)) {
			q := scanShapes[k](f, draw)
			var qr queryResponse
			d, err := r.timed("query", "server.query", func(int) error {
				return c.post("/api/query", map[string]any{"session": fmt.Sprintf("scan-%d-%d", i, k), "sql": q.sql}, &qr)
			})
			if err != nil {
				return fmt.Errorf("%s: %w", q.sql, err)
			}
			r.cover(f.n, d)
			if r.measuring {
				queries++
			}
			if r.tr != nil {
				if _, err := replayQuery(r, st.Eng(), q, d); err != nil {
					return err
				}
			}
			if err := q.check(qr.Rows, q.fold(f, 0, f.n, nil)); err != nil {
				r.wrongf("%v (%s)", err, q.sql)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	r.e2eCommon()
	if r.tr == nil {
		return nil
	}
	r.layerCommon()
	r.layer["store.open_ms"] = median(opens)
	if ps := st.Stats().Pool; ps != nil && pool0 != nil {
		hits, misses := ps.Hits-pool0.Hits, ps.Misses-pool0.Misses
		if hits+misses > 0 {
			r.layer["store.pool_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		r.layer["store.pool_misses_per_query"] = float64(misses) / float64(max(queries, 1))
		r.layer["store.pool_evictions"] = float64(ps.Evictions - pool0.Evictions)
	}
	r.layer["store.bytes_read_per_query"] = float64(cfs.snapshot().sub(io0).readAt) / float64(max(queries, 1))
	du, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.layer["e2e.disk_bytes_per_row"] = float64(du) / float64(f.n)
	t, err := st.Eng().Table("donations")
	if err != nil {
		return err
	}
	segs, bytes := t.MemStats()
	r.layer["engine.retained_segments"] = float64(segs)
	r.layer["engine.approx_bytes"] = float64(bytes)
	r.layer["predicate.shared_clauses"] = float64(sharedClauses(st.Eng()))
	return nil
}

// fecFrame generates the scan table: size.pieces FEC tables, each from
// its own seed, concatenated and stably sorted by campaign day.
func fecFrame(seed int64, size scanSize) *frame {
	var f *frame
	for k := 0; k < size.pieces; k++ {
		t, truth := datasets.FEC(datasets.FECConfig{Rows: size.rows, Seed: seed*int64(size.pieces) + int64(k) + 1})
		if f == nil {
			f = newFrame(t.Schema())
		}
		f.appendTable(t, 0, t.NumRows())
		f.label = append(f.label, truth...)
	}
	day := f.col("day")
	perm := make([]int, f.n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return f.num[day][perm[i]] < f.num[day][perm[j]] })
	for c := range f.schema {
		if f.num[c] != nil {
			f.num[c] = permuted(f.num[c], perm)
		} else {
			f.code[c] = permuted(f.code[c], perm)
		}
	}
	f.label = permuted(f.label, perm)
	return f
}

func permuted[T any](xs []T, perm []int) []T {
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = xs[p]
	}
	return out
}

// loadFrame bulk-loads f as table name into a fresh store at dir, one
// segment per append, and closes the store. It keeps the WAL: without
// it the rows of the last append are lost at Close (see CHANGES.md).
func loadFrame(dir, name string, f *frame, segBits uint, fs store.FS) (err error) {
	st, err := store.Open(dir, store.Options{FS: fs, Logf: quietLog})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	if err := st.CreateTable(name, f.schema, segBits); err != nil {
		return err
	}
	seg := 1 << segBits
	for lo := 0; lo < f.n; lo += seg {
		if _, err := st.Append(name, f.rows(lo, min(lo+seg, f.n))); err != nil {
			return err
		}
	}
	return nil
}

// rows rebuilds engine rows [lo, hi) of f.
func (f *frame) rows(lo, hi int) [][]engine.Value {
	out := make([][]engine.Value, hi-lo)
	for i := range out {
		row := make([]engine.Value, len(f.schema))
		for c, col := range f.schema {
			r := lo + i
			switch {
			case f.codeOf[c] != nil:
				row[c] = engine.NewString(f.str(c, r))
			case col.Type == engine.TFloat:
				row[c] = engine.NewFloat(f.num[c][r])
			case col.Type == engine.TTime:
				row[c] = engine.NewTimeUnix(int64(f.num[c][r]))
			default:
				row[c] = engine.NewInt(int64(f.num[c][r]))
			}
		}
		out[i] = row
	}
	return out
}

// decodedBytes is f's size once decoded by the engine: 8 bytes a
// numeric cell, 4 bytes a dictionary code.
func decodedBytes(f *frame) int64 {
	var per int64
	for c := range f.schema {
		if f.codeOf[c] != nil {
			per += 4
		} else {
			per += 8
		}
	}
	return per * int64(f.n)
}

// dataDir makes a fresh data directory under workDir.
func dataDir(workDir, workload string) (string, error) {
	base := filepath.Join(workDir, "data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, workload+"-")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func quietLog(string, ...any) {}

// ---------------------------------------------------------------------
// Query shapes. Each draws its constants from small pools, so some
// clauses repeat (their masks are already in the shared clause-mask
// cache) and others are new to it.

// draws hands out query constants from fixed pools. Each pool is
// walked in a seeded random order and then repeated, so a run of a
// given length draws every constant about equally often whatever its
// seed, and runs with different seeds do comparable work.
type draws struct {
	rng   *rand.Rand
	order map[string][]int
	next  map[string]int
}

func newDraws(seed int64) *draws {
	return &draws{rng: rand.New(rand.NewSource(seed)), order: map[string][]int{}, next: map[string]int{}}
}

// pick returns the next index into the pool named key, of size n.
func (d *draws) pick(key string, n int) int {
	o, ok := d.order[key]
	if !ok {
		o = d.rng.Perm(n)
		d.order[key] = o
	}
	i := d.next[key]
	d.next[key]++
	return o[i%n]
}

// amountPool holds the amount thresholds: six hot values that recur
// often, so their clause masks stay cached, and thirty colder ones.
var amountPool = func() []float64 {
	var xs []float64
	for k := 0; k < 5; k++ {
		xs = append(xs, 50, 100, 250, 500, 1000, 2000)
	}
	for x := 75.0; x < 2300; x += 75 {
		xs = append(xs, x)
	}
	return xs
}()

func (d *draws) amount(key string) float64 { return amountPool[d.pick(key, len(amountPool))] }

// str picks one of column c's values.
func (d *draws) str(f *frame, c int, key string) (string, int32) {
	code := int32(d.pick(key, len(f.dict[c])))
	return f.dict[c][code], code
}

func sqlStr(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

var scanShapes = []func(f *frame, d *draws) *query{
	// Grouped aggregates under one equality.
	func(f *frame, d *draws) *query {
		cand, state, amount := f.col("candidate"), f.col("state"), f.col("amount")
		cs, cc := d.str(f, cand, "cand@grouped")
		return &query{
			shape: "grouped", orderDesc: -1,
			sql:   fmt.Sprintf("SELECT state, count(*) AS n, sum(amount) AS total, avg(amount) AS mean FROM donations WHERE candidate = %s GROUP BY state", sqlStr(cs)),
			where: func(r int) bool { return f.code[cand][r] == cc },
			key:   func(r int) string { return f.str(state, r) },
			aggs:  []aggDef{{"count", 0}, {"sum", amount}, {"avg", amount}},
		}
	},
	// A selective equality AND chain.
	func(f *frame, d *draws) *query {
		cand, state, emp, occ, amount := f.col("candidate"), f.col("state"), f.col("employer"), f.col("occupation"), f.col("amount")
		cs, cc := d.str(f, cand, "cand@and_chain")
		ss, sc := d.str(f, state, "state@and_chain")
		es, ec := d.str(f, emp, "emp@and_chain")
		return &query{
			shape: "and_chain", orderDesc: -1,
			sql:   fmt.Sprintf("SELECT occupation, count(*) AS n, sum(amount) AS total FROM donations WHERE candidate = %s AND state = %s AND employer = %s GROUP BY occupation", sqlStr(cs), sqlStr(ss), sqlStr(es)),
			where: func(r int) bool { return f.code[cand][r] == cc && f.code[state][r] == sc && f.code[emp][r] == ec },
			key:   func(r int) string { return f.str(occ, r) },
			aggs:  []aggDef{{"count", 0}, {"sum", amount}},
		}
	},
	// A day range that zone maps can prune to a few segments.
	func(f *frame, d *draws) *query {
		day, amount := f.col("day"), f.col("amount")
		lo := float64(25 * d.pick("start", 24))
		hi := lo + float64(d.pick("width", 4))
		return &query{
			shape: "day_range", orderDesc: -1,
			sql:   fmt.Sprintf("SELECT day, count(*) AS n, sum(amount) AS total FROM donations WHERE day >= %g AND day <= %g GROUP BY day", lo, hi),
			where: func(r int) bool { x := f.num[day][r]; return x >= lo && x <= hi },
			nkey:  func(r int) float64 { return f.num[day][r] },
			aggs:  []aggDef{{"count", 0}, {"sum", amount}},
		}
	},
	// A lowered comparison with a LIKE residual.
	func(f *frame, d *draws) *query {
		city, state, amount := f.col("city"), f.col("state"), f.col("amount")
		x := d.amount("amount@residual")
		return &query{
			shape: "residual", orderDesc: -1,
			sql:   fmt.Sprintf("SELECT state, count(*) AS n, sum(amount) AS total FROM donations WHERE amount > %g AND city LIKE 'S%%' GROUP BY state", x),
			where: func(r int) bool { return f.num[amount][r] > x && strings.HasPrefix(f.str(city, r), "S") },
			key:   func(r int) string { return f.str(state, r) },
			aggs:  []aggDef{{"count", 0}, {"sum", amount}},
		}
	},
	// An OR chain.
	func(f *frame, d *draws) *query {
		cand, state, occ, amount := f.col("candidate"), f.col("state"), f.col("occupation"), f.col("amount")
		s1, c1 := d.str(f, state, "state1@or_chain")
		s2, c2 := d.str(f, state, "state2@or_chain")
		os, oc := d.str(f, occ, "occ@or_chain")
		return &query{
			shape: "or_chain", orderDesc: -1,
			sql:   fmt.Sprintf("SELECT candidate, count(*) AS n, sum(amount) AS total FROM donations WHERE state = %s OR state = %s OR occupation = %s GROUP BY candidate", sqlStr(s1), sqlStr(s2), sqlStr(os)),
			where: func(r int) bool { s := f.code[state][r]; return s == c1 || s == c2 || f.code[occ][r] == oc },
			key:   func(r int) string { return f.str(cand, r) },
			aggs:  []aggDef{{"count", 0}, {"sum", amount}},
		}
	},
	// An ungrouped aggregate the masked kernels fold.
	func(f *frame, d *draws) *query {
		cand, amount := f.col("candidate"), f.col("amount")
		cs, cc := d.str(f, cand, "cand@masked_agg")
		x := d.amount("amount@masked_agg")
		return &query{
			shape: "masked_agg", orderDesc: -1,
			sql:   fmt.Sprintf("SELECT count(*) AS n, sum(amount) AS total, min(amount) AS lo, max(amount) AS hi FROM donations WHERE candidate = %s AND amount > %g", sqlStr(cs), x),
			where: func(r int) bool { return f.code[cand][r] == cc && f.num[amount][r] > x },
			aggs:  []aggDef{{"count", 0}, {"sum", amount}, {"min", amount}, {"max", amount}},
		}
	},
	// ORDER BY an aggregate.
	func(f *frame, d *draws) *query {
		state, city, amount := f.col("state"), f.col("city"), f.col("amount")
		ss, sc := d.str(f, state, "state@order_by")
		return &query{
			shape: "order_by", orderDesc: 1,
			sql:   fmt.Sprintf("SELECT city, count(*) AS n, sum(amount) AS total FROM donations WHERE state = %s GROUP BY city ORDER BY total DESC", sqlStr(ss)),
			where: func(r int) bool { return f.code[state][r] == sc },
			key:   func(r int) string { return f.str(city, r) },
			aggs:  []aggDef{{"count", 0}, {"sum", amount}},
		}
	},
}
