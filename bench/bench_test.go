package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"agilepaging/internal/cpu"
	"agilepaging/internal/experiments"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/repcache"
	"agilepaging/internal/sweep"
)

// smokeParams runs one set-up and one rep per phase at a small run length.
func smokeParams(traced bool) params {
	return params{seed: 42, paperAccesses: 3_000, execAccesses: 3_000, setupRuns: 1, traced: traced, tracedReps: 1}
}

type benchmarkSpec struct {
	RunSeconds int                           `json:"run_seconds"`
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRunSecondsMatchesSpec keeps the default run length, which A/B runs
// use, equal to the one the benchmark is defined at.
func TestRunSecondsMatchesSpec(t *testing.T) {
	if spec := readSpec(t); spec.RunSeconds != runSeconds {
		t.Fatalf("BENCHMARK.json run_seconds = %d, runSeconds = %d", spec.RunSeconds, runSeconds)
	}
}

// run runs w and returns its result, its text lines by metric name and the
// metrics of its result line.
func run(t *testing.T, w workloadDef, p params) (result, map[string]string) {
	t.Helper()
	var out bytes.Buffer
	res, err := runWorkload(context.Background(), &out, w, p, "")
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", w.name, err)
	}
	units := map[string]string{}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 4 || f[0] != w.name || !name.MatchString(f[1]) {
			t.Errorf("%s: malformed metric line %q", w.name, l)
			continue
		}
		units[f[1]] = f[3]
	}
	return res, units
}

// TestBenchmarkMetricsReported runs every workload once, traced, and checks
// that it prints every metric BENCHMARK.json names, with its unit, and that
// the result line of each run mode holds exactly that mode's metrics.
func TestBenchmarkMetricsReported(t *testing.T) {
	spec := readSpec(t)
	check := func(w workloadDef, res result, units map[string]string, want []struct{ Name, Unit string }) {
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: result %+v", w.name, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: result has %d metrics, BENCHMARK.json names %d", w.name, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: %s printed with unit %q, want %q", w.name, m.Name, units[m.Name], m.Unit)
			}
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: result metric %s = %+v, want unit %q", w.name, m.Name, got, m.Unit)
			}
		}
	}
	for _, w := range workloads {
		res, units := run(t, w, smokeParams(true))
		check(w, res, units, spec.PerLayer)
		for _, m := range spec.EndToEnd {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: %s printed with unit %q, want %q", w.name, m.Name, units[m.Name], m.Unit)
			}
		}
	}
	w, _ := workloadByName("walk-heavy")
	res, units := run(t, w, smokeParams(false))
	check(w, res, units, spec.EndToEnd)
}

// TestCorruptDigestFailsEveryCell checks that output differing from the
// expected digest counts every cell as failed.
func TestCorruptDigestFailsEveryCell(t *testing.T) {
	p := smokeParams(false)
	p.expected = map[string]string{"walk-heavy": "corrupt"}
	w, _ := workloadByName("walk-heavy")
	res, units := run(t, w, p)
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("result %+v, want every attempted cell failed", res)
	}
	if units["fail_ratio"] == "" {
		t.Fatal("fail_ratio not printed")
	}
}

// TestFailedDriverCountsDeclaredCells checks that a driver failing before
// any of its cells completes still counts every cell it declared.
func TestFailedDriverCountsDeclaredCells(t *testing.T) {
	w, _ := workloadByName("paper-cold")
	b := newBench(smokeParams(false), w)
	r := &repRun{declared: b.declared}
	r.driver("Figure5Sweep", func(sweep.Config) (string, error) { return "", errors.New("injected") })
	if want := len(b.grid()); r.cells != want || r.failed != want {
		t.Fatalf("%d cells, %d failed; want %d of %d", r.cells, r.failed, want, want)
	}
}

// TestTracedCellMatchesRunProfile checks that the benchmark's replica of the
// simulation funnel produces RunProfile's report, bit for bit, for every
// exec cell, single- and multi-core.
func TestTracedCellMatchesRunProfile(t *testing.T) {
	r := &repRun{tr: newTracer()}
	names := append(append([]string{}, walkHeavy...), updateHeavy...)
	for _, j := range figure5Jobs(names, []pagetable.Size{pagetable.Size4K}, 3_000, 7) {
		repcache.Reset()
		want, err := experiments.RunProfile(j.Workload, j.Options)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.tracedCell(j.Workload, j.Options, j.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !sameReport(got, want) {
			t.Errorf("%s: traced report\n%+v\nwant\n%+v", j.Key, got, want)
		}
	}
	if r.funnel.cells != 4*len(names) || len(r.tr.spans) == 0 {
		t.Errorf("funnel recorded %d cells and %d spans", r.funnel.cells, len(r.tr.spans))
	}
	cpu.ResetMachinePool()
}
