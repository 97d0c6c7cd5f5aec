package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one recorded call into a layer: its name ("layer.op"), the
// round it belongs to, its parent span (0 for a round's root) and its
// interval in microseconds since the recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Round   int    `json:"round"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer records spans in memory. A nil *tracer records nothing, so
// the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	round int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id; end closes it.
// An empty name records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || name == "" {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Round: t.round, Name: name,
		StartUS: time.Since(t.t0).Microseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndUS = time.Since(t.t0).Microseconds()
}

// child records a span of known duration inside parent, laid out after
// the parent's previous synthetic children: the program reports stage
// times (DebugResult.Timings) but not their start instants.
func (t *tracer) child(name string, parent int, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	p := t.spans[parent-1]
	start := p.StartUS
	for i := len(t.spans) - 1; i >= parent; i-- {
		if t.spans[i].Parent == parent {
			start = t.spans[i].EndUS
			break
		}
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Round: t.round, Name: name,
		StartUS: start, EndUS: start + d.Microseconds(),
	})
}

// layerOf returns the layer a span name belongs to ("core.debug" →
// "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in milliseconds: the sum
// over its spans of the span's duration minus the time its direct
// children cover. Children of one span never overlap (the benchmark is
// one sequential client).
func (t *tracer) selfTimes() map[string]float64 {
	childUS := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childUS[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.EndUS - s.StartUS - childUS[s.ID]
		if self < 0 {
			self = 0
		}
		out[layerOf(s.Name)] += float64(self) / 1e3
	}
	return out
}

// durations returns the durations in milliseconds of every span with
// the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndUS-s.StartUS)/1e3)
		}
	}
	return out
}

// write dumps the spans and the per-layer metrics as JSON to path.
func (t *tracer) write(path string, metrics map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Spans   []span            `json:"spans"`
		Metrics map[string]metric `json:"metrics"`
	}{t.spans, metrics}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
