package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsToySize runs every workload at toy size, untraced and
// traced, with every output check on. It asserts no timing: only that
// each run completes, its outputs are correct, its failures are the
// expected ones, and it prints every declared metric.
func TestWorkloadsToySize(t *testing.T) {
	for _, name := range []string{"explore", "scan", "stream"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "toy", "--work-dir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d: %s", res.Correct, res.Attempted, stderr.String())
				}
				// Only the stream's stale-snapshot queries may fail, one a
				// round, until retention keeps referenced files alive.
				if name != "stream" && res.Failed != 0 {
					t.Fatalf("%d operations failed: %s", res.Failed, stderr.String())
				}
				if name == "stream" && res.Failed > 0 && !strings.Contains(stdout.String(), "ROADMAP item 1(a)") {
					t.Fatalf("stale-snapshot failures are not tied to their cause: %s", stdout.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Fatalf("metric %s: got %+v", m.name, got)
					}
					if trace == "0" && !(got.Value > 0) {
						t.Fatalf("end-to-end metric %s reads %v", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the ones the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
