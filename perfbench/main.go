// Command perfbench is the repository's benchmark. One closed-loop
// client with one connection drives one of three workloads for a fixed
// time, checks every output of the program against folds computed
// apart from it, and prints one JSON result line:
//
//	go run ./perfbench --workload explore --seed 1 --seconds 10 --trace 0
//
// Workloads: explore (analyst sessions over HTTP on resident tables),
// scan (the executor and buffer pool over an out-of-core table) and
// stream (append, Advance and DebugAdvance on a durable store with
// retention). --trace 1 prints the per-layer metrics instead of the
// end-to-end ones and writes the recorded spans under --work-dir. See
// README.md for the metrics, the inputs and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed on the lines before the result.
	notes []string
}

// endToEnd and perLayer list the reported metrics with their units, in
// the order BENCHMARK.json declares them. Every run reports every
// metric of its kind; a per-layer figure of a layer the workload does
// not reach reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"round_p50_ms", "ms"},
	{"rows_per_s", "rows/s"},
	{"heap_live_p90_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"e2e.debug_p50_ms", "ms"},
	{"e2e.clean_p50_ms", "ms"},
	{"e2e.append_p50_ms", "ms"},
	{"e2e.recover_ms", "ms"},
	{"e2e.disk_bytes_per_row", "bytes"},
	{"core.debug_ms", "ms"},
	{"core.preprocess_ms", "ms"},
	{"core.enumerate_ms", "ms"},
	{"core.featurize_ms", "ms"},
	{"core.predicates_ms", "ms"},
	{"core.rank_ms", "ms"},
	{"core.candidates", "count"},
	{"core.lineage_rows", "rows"},
	{"core.advance_full", "count"},
	{"core.advance_carried", "count"},
	{"core.advance_reexpanded", "count"},
	{"influence.rank_ms", "ms"},
	{"exec.run_ms", "ms"},
	{"exec.clean_ms", "ms"},
	{"exec.advance_ms", "ms"},
	{"exec.advance_fallbacks", "count"},
	{"exec.segs_skipped", "count"},
	{"exec.chunks_faulted", "count"},
	{"exec.residual_rows", "rows"},
	{"exec.conjuncts_short_circuited", "count"},
	{"exec.boxed_queries", "count"},
	{"exec.masked_agg_queries", "count"},
	{"store.append_ms", "ms"},
	{"store.retain_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.pool_hit_ratio", "ratio"},
	{"store.pool_misses_per_query", "count"},
	{"store.pool_evictions", "count"},
	{"store.fsyncs_per_batch", "count"},
	{"store.bytes_written_per_row", "bytes"},
	{"store.bytes_read_per_query", "bytes"},
	{"engine.retained_segments", "count"},
	{"engine.approx_bytes", "bytes"},
	{"predicate.shared_clauses", "count"},
	{"server.query_overhead_ms", "ms"},
	{"server.debug_overhead_ms", "ms"},
	{"server.clean_overhead_ms", "ms"},
	{"runtime.alloc_bytes_per_debug", "bytes"},
	{"runtime.alloc_bytes_per_query", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"self.bench_ms", "ms"},
	{"self.server_ms", "ms"},
	{"self.exec_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.influence_ms", "ms"},
	{"self.store_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	toy      bool   // toy-size inputs, for the self-test
	workDir  string // data directories and traces go under it
	log      io.Writer
}

var workloads = map[string]func(*runner) error{
	"explore": runExplore,
	"scan":    runScan,
	"stream":  runStream,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "explore, scan or stream")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "measuring time per run")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	size := fs.String("size", "full", "input size: full, or toy for a quick check")
	workDir := fs.String("work-dir", ".bench_build", "directory for the run's data directories and span JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (*size != "full" && *size != "toy") {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, size %q)\n", *name, *seconds, *trace, *size)
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, toy: *size == "toy", workDir: *workDir, log: stderr,
	}
	res, err := measure(cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// measure runs one workload and assembles its result line.
func measure(cfg config, w func(*runner) error) (*result, error) {
	r := &runner{cfg: cfg, samples: map[string][]float64{}, notes: map[string][]float64{}, lows: map[string]float64{}, e2e: map[string]float64{}, layer: map[string]float64{}}
	if err := w(r); err != nil {
		return nil, err
	}
	for _, msg := range r.wrong {
		fmt.Fprintf(cfg.log, "perfbench: %s: wrong output: %s\n", cfg.workload, msg)
	}
	for _, what := range sortedKeys(r.lows) {
		r.notef("%s: lowest checked value %.3f", what, r.lows[what])
	}
	res := &result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}, notes: r.lines}
	list, vals := endToEnd, r.e2e
	if cfg.trace {
		list, vals = perLayer, r.layer
	}
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !cfg.trace {
				return nil, fmt.Errorf("metric %s was not measured", m.name)
			}
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if cfg.trace && r.tr != nil {
		path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := r.tr.write(path, res.Metrics); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// runner is the state one workload run shares with the harness: the
// operation counts, the latency samples of the measured rounds, the
// correctness findings and the metric values.
type runner struct {
	cfg       config
	tr        *tracer
	measuring bool
	attempted int64
	failed    int64
	wrong     []string
	lines     []string             // printed before the result line
	lows      map[string]float64   // lowest value of each checked quantity
	samples   map[string][]float64 // op class → latencies (ms), measured untraced rounds only
	notes     map[string][]float64 // per-layer samples, traced rounds only
	e2e       map[string]float64
	layer     map[string]float64
	// coveredRows and coveredTime tally rows_per_s.
	coveredRows, coveredTime float64
	// roundOps collects the summed latency of each measured round's
	// timed operations, apart for traced and untraced rounds:
	// round_p50_ms, and the tracing overhead as the difference of the
	// two kinds' means.
	roundOps  map[bool][]float64
	roundSum  float64
	roundSpan int
	rounds    int  // rounds started, warm-up included
	stopped   bool // a round returned errStop: the workload's input is used up
}

// errStop ends a run early, before the round that returns it does any
// work: the workload has no input left for another whole round.
var errStop = errors.New("perfbench: workload input used up")

// notef records a line printed before the result.
func (r *runner) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// lowest tracks the lowest value a checked quantity took; measure
// prints each with its floor's margin visible.
func (r *runner) lowest(what string, v float64) {
	if old, ok := r.lows[what]; !ok || v < old {
		r.lows[what] = v
	}
}

// wrongf records an output that disagrees with its oracle.
func (r *runner) wrongf(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// timed runs one operation of the workload: it counts the attempt,
// opens a span, and in the measured phase records the latency under
// class (class "" records nothing). The error is the operation's own.
func (r *runner) timed(class, spanName string, f func(span int) error) (time.Duration, error) {
	r.attempted++
	id := r.tr.begin(spanName, r.roundSpan)
	start := time.Now()
	err := f(id)
	d := time.Since(start)
	r.tr.end(id)
	if err != nil {
		return d, err
	}
	if r.measuring && class != "" {
		ms := float64(d) / 1e6
		r.roundSum += ms
		if r.tr == nil {
			r.samples[class] = append(r.samples[class], ms)
		}
	}
	return d, nil
}

// replay times a direct call the traced run makes to attribute a
// request's time to layers; it is not a workload operation.
func (r *runner) replay(spanName string, f func(span int) error) (time.Duration, error) {
	id := r.tr.begin(spanName, r.roundSpan)
	start := time.Now()
	err := f(id)
	d := time.Since(start)
	r.tr.end(id)
	return d, err
}

// setRound stamps the spans that follow with round i.
func (r *runner) setRound(i int) {
	if r.tr != nil {
		r.tr.round = i
	}
}

// setup builds the workload's state reps times, tearing down all but
// the last, and reports the median build time as setup_s.
func (r *runner) setup(reps int, build func() (teardown func(), err error)) error {
	var ds []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		teardown, err := build()
		if err != nil {
			return err
		}
		ds = append(ds, time.Since(start).Seconds())
		if i < reps-1 {
			teardown()
		}
	}
	r.e2e["setup_s"] = median(ds)
	return nil
}

// phases runs the workload's rounds: one warm-up round, then whole
// rounds for the measuring time. A traced run traces every other
// round: its end-to-end figures come from the untraced rounds, and the
// difference of the two kinds' mean operation time per round is the
// tracing overhead.
func (r *runner) phases(round func(i int) error) error {
	r.roundOps = map[bool][]float64{}
	if err := r.runRounds(round, 0, 1, nil); err != nil {
		return err
	}
	runtime.GC()
	r.measuring = true
	heap := startHeapSampler()
	defer func() { r.e2e["heap_live_p90_mb"] = heap.finish() }()
	gc0 := readUint("/gc/cycles/total:gc-cycles")
	var rec *tracer
	if r.cfg.trace {
		rec = newTracer()
	}
	err := r.runRounds(round, r.cfg.seconds, 2, rec)
	r.tr = rec
	if rec != nil {
		r.layer["runtime.gc_cycles"] = float64(readUint("/gc/cycles/total:gc-cycles") - gc0)
		r.layer["trace.overhead_ms"] = meanOf(r.roundOps[true]) - meanOf(r.roundOps[false])
		r.layer["trace.spans"] = float64(len(rec.spans))
	}
	return err
}

// runRounds runs whole rounds until d has passed (at least min
// rounds), recording every odd round's spans in rec when it is set.
func (r *runner) runRounds(round func(i int) error, d time.Duration, min int, rec *tracer) error {
	defer func() { r.tr = nil }()
	deadline := time.Now().Add(d)
	for i := 0; !r.stopped && (i < min || time.Now().Before(deadline)); i++ {
		n := r.rounds
		r.rounds++
		r.tr = nil
		if n%2 == 1 {
			r.tr = rec
		}
		r.roundSum = 0
		r.setRound(n)
		r.roundSpan = r.tr.begin("bench.round", 0)
		err := round(n)
		r.tr.end(r.roundSpan)
		r.roundSpan = 0
		if errors.Is(err, errStop) {
			r.stopped = true
			return nil
		}
		if err != nil {
			return err
		}
		if r.measuring {
			r.roundOps[r.tr != nil] = append(r.roundOps[r.tr != nil], r.roundSum)
		}
	}
	return nil
}

// p50 returns the median latency of an op class in the measured
// phase. Classes split by dataset ("query/intel", "query/fec") are
// each taken apart and their medians averaged: the median of a mix of
// two unequal populations would sit in the gap between them.
func (r *runner) p50(class string) float64 {
	var meds []float64
	for name, xs := range r.samples {
		if name == class || strings.HasPrefix(name, class+"/") {
			meds = append(meds, median(xs))
		}
	}
	if len(meds) == 0 {
		return math.NaN()
	}
	return meanOf(meds)
}

// finishTrace fills the per-layer self times from the recorded spans.
func (r *runner) finishTrace() {
	if r.tr == nil {
		return
	}
	rounds := float64(len(r.roundOps[true]))
	for layer, ms := range r.tr.selfTimes() {
		r.layer["self."+layer+"_ms"] = ms / math.Max(rounds, 1)
	}
}

// spanP50 is the median duration of the named spans (0 when none).
func (r *runner) spanP50(name string) float64 {
	if r.tr == nil {
		return 0
	}
	d := r.tr.durations(name)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// ---------------------------------------------------------------------
// runtime/metrics helpers

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 { return readUint("/gc/heap/allocs:bytes") }

// heapSampler records the live heap each garbage collection found: it
// polls the runtime's cycle count every few milliseconds and keeps the
// live-heap figure of every cycle it sees complete. Unlike the heap's
// momentary size, that figure does not depend on when the collector
// happened to run.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var live []float64
		last := readUint("/gc/cycles/total:gc-cycles")
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := readUint("/gc/cycles/total:gc-cycles"); n != last {
				last = n
				live = append(live, float64(readUint("/gc/heap/live:bytes")))
			}
			select {
			case <-h.stop:
				h.done <- live
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the 90th percentile of the live
// heap over the collections it saw, in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	live := <-h.done
	if len(live) == 0 {
		return float64(readUint("/gc/heap/live:bytes")) / (1 << 20)
	}
	return quantile(live, 0.9) / (1 << 20)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
