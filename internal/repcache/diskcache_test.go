package repcache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"agilepaging/internal/cpu"
)

// testBuild stands in for an executable's hash where a test encodes or
// decodes files directly.
var testBuild = sha256.Sum256([]byte("test build"))

// setDir points the disk tier at dir, failing the test if the build
// identity cannot be taken.
func setDir(t *testing.T, dir string) {
	t.Helper()
	if err := SetDir(dir); err != nil {
		t.Fatal(err)
	}
}

// swapBuild changes the build identity the disk tier stamps and accepts,
// as running a different executable would.
func swapBuild() {
	cache.mu.Lock()
	cache.build[0] ^= 0xFF
	cache.mu.Unlock()
}

func TestReportFileRoundTrip(t *testing.T) {
	rep := sampleReport(3)
	data, err := encodeReportFile(rep, testBuild)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeReportFile(data, testBuild)
	if err != nil {
		t.Fatal(err)
	}
	if got != rep {
		t.Fatalf("round trip changed report:\n got %+v\nwant %+v", got, rep)
	}
}

func TestDiskTierHitAcrossReset(t *testing.T) {
	reset(t)
	dir := t.TempDir()
	setDir(t, dir)

	rep := sampleReport(9)
	var computes atomic.Int64
	compute := func() (cpu.Report, error) {
		computes.Add(1)
		return rep, nil
	}
	if _, err := Do("cell", compute); err != nil {
		t.Fatal(err)
	}
	// Reset drops the in-memory tier but not the files — this models a new
	// process pointed at the same -report-cache-dir.
	Reset()
	got, err := Do("cell", compute)
	if err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (second run must load from disk)", n)
	}
	if got != rep {
		t.Fatal("disk-loaded report differs from original")
	}
	// Reset rewound the counters with the in-memory tier, so only the
	// post-reset disk hit is visible.
	info := Info()
	if info.DiskHits != 1 || info.DiskMisses != 0 {
		t.Fatalf("disk stats = %d hits / %d misses, want 1/0", info.DiskHits, info.DiskMisses)
	}
}

// TestDiskTierRejectsAnotherBuild: a file written by one build is never
// served to another, even though the cell key is the same. The other build
// re-simulates and replaces the file with its own.
func TestDiskTierRejectsAnotherBuild(t *testing.T) {
	reset(t)
	setDir(t, t.TempDir())
	var computes atomic.Int64
	compute := func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(7), nil
	}
	if _, err := Do("cell", compute); err != nil {
		t.Fatal(err)
	}

	// A new process of a different executable over the same directory.
	Reset()
	swapBuild()
	if _, err := Do("cell", compute); err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2 (another build's file must not be served)", n)
	}
	if info := Info(); info.DiskHits != 0 || info.DiskMisses != 1 {
		t.Fatalf("disk stats = %d hits / %d misses, want 0/1", info.DiskHits, info.DiskMisses)
	}

	// The file now carries the second build's identity, which loads it.
	Reset()
	if _, err := Do("cell", compute); err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2 (the same build must load its file)", n)
	}
}

// TestSetDirTakesExecutableHash: the build identity SetDir stamps on files
// is the sha256 of the running executable.
func TestSetDirTakesExecutableHash(t *testing.T) {
	reset(t)
	setDir(t, t.TempDir())
	path, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cache.build != sha256.Sum256(exe) {
		t.Fatal("build identity is not the sha256 of the executable")
	}
}

// corruptions enumerate the hostile-input cases: each must make the load
// miss, remove the bad file, and regenerate it by re-simulation.
func TestDiskTierHostileFiles(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xFF; return d }},
		{"flipped payload bit", func(d []byte) []byte { d[len(d)/2] ^= 0x01; return d }},
		{"stale container version", func(d []byte) []byte {
			// Rewrite the file in the previous container layout (a u32
			// version and a Report schema string where the build identity
			// now sits) and re-seal the CRC: the magic is unchanged, so
			// such a file passes the magic and checksum checks and must
			// still be rejected as a layout this build does not write.
			old := append([]byte(nil), reportFileMagic[:]...)
			old = binary.LittleEndian.AppendUint32(old, 1)
			schema := "struct{Technique int;Cycles uint64;}"
			old = binary.LittleEndian.AppendUint32(old, uint32(len(schema)))
			old = append(old, schema...)
			old = append(old, d[8+32:len(d)-4]...) // gob length and gob
			return resealCRC(append(old, 0, 0, 0, 0))
		}},
		{"schema mismatch", func(d []byte) []byte {
			// Flip a build-identity byte and re-seal the CRC: models a
			// file written by a binary whose Report struct differed, which
			// is another build, so only the build check can reject it.
			d[8] ^= 0x01
			return resealCRC(d)
		}},
		{"trailing garbage", func(d []byte) []byte {
			return append(d, 0xAA, 0xBB)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reset(t)
			dir := t.TempDir()
			setDir(t, dir)
			rep := sampleReport(5)
			if _, err := Do("cell", func() (cpu.Report, error) { return rep, nil }); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, reportFileName("cell"))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}

			Reset()
			var computes atomic.Int64
			got, err := Do("cell", func() (cpu.Report, error) {
				computes.Add(1)
				return rep, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if computes.Load() != 1 {
				t.Fatal("corrupt file was accepted instead of re-simulating")
			}
			if got != rep {
				t.Fatal("regenerated report differs")
			}
			// The corrupt file must have been replaced by a valid one.
			fresh, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("cache file not regenerated: %v", err)
			}
			if _, err := decodeReportFile(fresh, cache.build); err != nil {
				t.Fatalf("regenerated file invalid: %v", err)
			}
		})
	}
}

// resealCRC recomputes the trailing checksum after a deliberate header
// mutation, so the test exercises the semantic check rather than the CRC.
func resealCRC(d []byte) []byte {
	body := d[:len(d)-4]
	binary.LittleEndian.PutUint32(d[len(d)-4:], crc32.Checksum(body, crcTable))
	return d
}

func TestOversizedFileRejected(t *testing.T) {
	reset(t)
	dir := t.TempDir()
	setDir(t, dir)
	path := filepath.Join(dir, reportFileName("cell"))
	if err := os.WriteFile(path, make([]byte, maxReportFileBytes+1), 0o644); err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	if _, err := Do("cell", func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatal("oversized file should be ignored")
	}
}

func TestDiskWriteFailureCounted(t *testing.T) {
	reset(t)
	dir := filepath.Join(t.TempDir(), "blocked")
	// A regular file where the cache directory should be makes MkdirAll
	// fail, exercising the write-error path without permissions games.
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	setDir(t, dir)
	rep, err := Do("cell", func() (cpu.Report, error) { return sampleReport(2), nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep != sampleReport(2) {
		t.Fatal("write failure must not affect the returned report")
	}
	if info := Info(); info.DiskErrors != 1 {
		t.Fatalf("DiskErrors = %d, want 1", info.DiskErrors)
	}
}

// FuzzReportFileDecode asserts the decoder never panics and never accepts
// bytes that fail to reproduce an exact report: any input it does accept
// must re-encode to a decode-equal value.
func FuzzReportFileDecode(f *testing.F) {
	valid, err := encodeReportFile(sampleReport(1), testBuild)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:20])
	truncated := append([]byte(nil), valid...)
	f.Add(truncated[:len(truncated)-5])
	flipped := append([]byte(nil), valid...)
	flipped[12] ^= 0xFF
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeReportFile(data, testBuild)
		if err != nil {
			return
		}
		reenc, err := encodeReportFile(rep, testBuild)
		if err != nil {
			t.Fatalf("accepted report failed to re-encode: %v", err)
		}
		back, err := decodeReportFile(reenc, testBuild)
		if err != nil || back != rep {
			t.Fatalf("accepted report not stable under round trip: %v", err)
		}
	})
}
