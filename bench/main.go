// Command bench is the repository benchmark. It measures what regenerating
// the paper's evaluation costs in host time and memory, end to end and per
// layer, on four closed-loop workloads, and checks that every rep's output
// is correct. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                          # every workload, each in a child process
//	bash bench/run.sh -workload walk-heavy -seed 7
//	bash bench/run.sh -trace out.json          # traced run, Chrome trace per workload
//	bash bench/run.sh -update-digests bench/testdata/digests_seed42.json
//	bash bench/ab.sh BASE [PAIRS]              # paired A/B against a git revision
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// procs bounds the benchmark to one process with two threads running Go
// code, matching the two CPUs it is calibrated on.
const procs = 2

// runSeconds is the benchmark's run length, BENCHMARK.json's run_seconds
// (a test keeps the two equal). A/B runs use it too.
const runSeconds = 20

// digestFile holds the output digests committed for seed 42 at the default
// run lengths. Only a change that intentionally alters simulated behaviour
// may regenerate it.
type digestFile struct {
	Seed          int64             `json:"seed"`
	PaperAccesses int               `json:"paper_accesses"`
	ExecAccesses  int               `json:"exec_accesses"`
	Digests       map[string]string `json:"digests"`
}

//go:embed testdata/digests_seed42.json
var committedDigests []byte

// defaultParams returns the run lengths the benchmark is defined at, with
// the committed digests as expected output when they apply to seed.
func defaultParams(seed int64, seconds float64) (params, error) {
	p := params{seed: seed, paperAccesses: 120_000, execAccesses: 150_000, seconds: seconds, setupRuns: 3, tracedReps: 3, minCells: 200}
	var d digestFile
	if err := json.Unmarshal(committedDigests, &d); err != nil {
		return p, fmt.Errorf("committed digests: %w", err)
	}
	if d.Seed == seed && d.PaperAccesses == p.paperAccesses && d.ExecAccesses == p.execAccesses {
		p.expected = d.Digests
	}
	return p, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process (default: every workload, each in its own child process)")
		seed    = flag.Int64("seed", 42, "seed of the generated workload streams")
		seconds = flag.Float64("seconds", runSeconds, "seconds of timed reps per workload in an untraced run")
		trace   = flag.String("trace", "0", "0: untraced run; 1: traced run; any other value: traced run that also writes Chrome trace-event JSON to this file")
		update  = flag.String("update-digests", "", "write the seed-42 output digests of this tree to this file and exit")
		ab      = flag.String("ab-summary", "", "summarize the paired runs bench/ab.sh collected in this file and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		exit(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	runtime.GOMAXPROCS(procs)
	ctx := context.Background()
	p, err := defaultParams(*seed, *seconds)
	if err != nil {
		exit(err)
	}
	switch {
	case *ab != "":
		exit(summarizeFile(*ab))
	case *update != "":
		p.seed, p.expected = 42, nil
		exit(updateDigests(ctx, p, *update))
	case *name == "":
		exit(runChildren(*seed, *seconds, *trace))
	}
	w, ok := workloadByName(*name)
	if !ok {
		exit(fmt.Errorf("unknown workload %q", *name))
	}
	p.traced = *trace != "0"
	chrome := ""
	if *trace != "0" && *trace != "1" {
		chrome = *trace
	}
	_, err = runWorkload(ctx, os.Stdout, w, p, chrome)
	exit(err)
}

// exit exits nonzero on a non-nil error and cleanly otherwise.
func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func summarizeFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return abSummary(f, os.Stdout)
}

// runChildren runs every workload in its own child process, one after
// another, so each starts with fresh process-wide caches and heap. It fails
// if a child fails or reports incorrect output.
func runChildren(seed int64, seconds float64, trace string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var bad []string
	for _, w := range workloads {
		childTrace := trace
		if trace != "0" && trace != "1" {
			ext := filepath.Ext(trace)
			childTrace = strings.TrimSuffix(trace, ext) + "." + w.name + ext
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", childTrace)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
			bad = append(bad, w.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("incorrect output: %s", strings.Join(bad, ", "))
	}
	return nil
}

// updateDigests runs one cold rep of every workload family at seed 42 and
// writes their output digests to path.
func updateDigests(ctx context.Context, p params, path string) error {
	d := digestFile{Seed: p.seed, PaperAccesses: p.paperAccesses, ExecAccesses: p.execAccesses, Digests: map[string]string{}}
	for _, w := range workloads {
		if _, ok := d.Digests[w.family]; ok {
			continue
		}
		b := newBench(p, w)
		resetCaches()
		r := b.runRep(ctx)
		if b.failed > 0 {
			return fmt.Errorf("%s: %w", w.name, errors.Join(b.errs...))
		}
		d.Digests[w.family] = r.digest
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
