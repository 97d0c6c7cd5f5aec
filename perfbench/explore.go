package main

import (
	"fmt"
	"math/rand"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/predicate"
	"repro/internal/server"
)

// maxSessions caps the server's session map. Every round opens a fresh
// session, and each one pins its result; the default cap (1024) would
// let the heap grow with the length of the run.
const maxSessions = 8

// runExplore drives analyst sessions over HTTP against resident Intel
// and FEC tables; a round is one session on each. Each session opens a
// fresh session id, so neither the query nor Debug can be answered from
// a previous session's carried state.
func runExplore(r *runner) error {
	intelRows, fecRows := 200_000, 150_000
	if r.cfg.toy {
		intelRows, fecRows = 100_000, 30_000
	}
	var (
		db                   *engine.DB
		intel, fec           *engine.Table
		intelTruth, fecTruth []bool
		hs                   *httpServer
	)
	err := r.setup(3, func() (func(), error) {
		intel, intelTruth = datasets.Intel(datasets.IntelConfig{Rows: intelRows, Seed: r.cfg.seed})
		fec, fecTruth = datasets.FEC(datasets.FECConfig{Rows: fecRows, Seed: r.cfg.seed})
		db = engine.NewDB()
		db.Register(intel)
		db.Register(fec)
		srv := server.New(db)
		srv.SetSessionLimits(maxSessions, 0)
		var err error
		hs, err = startHTTP(srv)
		return func() { _ = hs.stop() }, err
	})
	if err != nil {
		return err
	}
	defer func() { _ = hs.stop() }()

	an := []*analysis{intelAnalysis(db, frameOf(intel, intelTruth)), fecAnalysis(db, frameOf(fec, fecTruth))}
	for _, a := range an {
		a.prepare()
	}
	c := newClient(hs.url)
	defer c.close()
	if err := r.phases(func(i int) error {
		rng := rand.New(rand.NewSource(r.cfg.seed*1_000_003 + int64(i)))
		for k, a := range an {
			if err := a.session(r, c, fmt.Sprintf("explore-%d-%d", i, k), rng); err != nil {
				return err
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
	var st statsResponse
	if err := c.get("/api/stats", &st); err != nil {
		return err
	}
	segs, bytes := 0, 0
	for _, t := range st.Tables {
		segs += t.Segments
		bytes += t.Bytes
	}
	r.layer["engine.retained_segments"] = float64(segs)
	r.layer["engine.approx_bytes"] = float64(bytes)
	r.layer["predicate.shared_clauses"] = float64(sharedClauses(db))
	return nil
}

// sharedClauses counts the clause masks cached in the shared predicate
// indexes of db's tables.
func sharedClauses(db *engine.DB) int {
	n := 0
	for _, name := range db.Names() {
		if t, err := db.Table(name); err == nil {
			n += predicate.Shared(t).NumClauses()
		}
	}
	return n
}
