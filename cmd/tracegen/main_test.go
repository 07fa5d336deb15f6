package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestParseHelpers pins that every -technique and -pagesize value the
// other tools accept reaches the record, replay and miss-log paths.
func TestParseHelpers(t *testing.T) {
	dir := t.TempDir()
	for _, ps := range []string{"4K", "2M", "1G"} {
		ops := filepath.Join(dir, ps+".trace")
		if err := doRecord(ops, "astar", ps, 200, 1); err != nil {
			t.Errorf("record -pagesize %s: %v", ps, err)
		}
	}
	for _, tech := range []string{"native", "nested", "shadow", "agile", "A", "B"} {
		if err := doReplay(filepath.Join(dir, "4K.trace"), tech, "4K"); err != nil {
			t.Errorf("replay -technique %s: %v", tech, err)
		}
	}
	if err := doMissLog(filepath.Join(dir, "miss.trace"), "astar", "x", "4K", 200, 1); err == nil {
		t.Error("bad technique accepted")
	}
	if err := doRecord(filepath.Join(dir, "bad.trace"), "astar", "3M", 200, 1); err == nil {
		t.Error("bad page size accepted")
	}
}

func TestRecordReplayAnalyzeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ops := filepath.Join(dir, "ops.trace")
	if err := doRecord(ops, "astar", "4K", 2000, 1); err != nil {
		t.Fatalf("record: %v", err)
	}
	if _, err := os.Stat(ops); err != nil {
		t.Fatal(err)
	}
	if err := doReplay(ops, "shadow", "4K"); err != nil {
		t.Fatalf("replay: %v", err)
	}
	miss := filepath.Join(dir, "miss.trace")
	if err := doMissLog(miss, "astar", "agile", "4K", 2000, 1); err != nil {
		t.Fatalf("misslog: %v", err)
	}
	if err := doAnalyze(miss); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if err := doRecord(ops, "nope", "4K", 10, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
