package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/trace"
	"agilepaging/internal/walker"
)

// TestTelemetryPurity pins the observability contract: attaching the epoch
// recorder and the walk-event ring must leave every simulated counter
// bit-identical. A telemetry layer that perturbs results would silently
// invalidate every golden number.
func TestTelemetryPurity(t *testing.T) {
	for _, tech := range Techniques() {
		t.Run(tech.String(), func(t *testing.T) {
			run := func(o Options) (interface{}, *telemetry.Recorder) {
				rep, err := RunProfile("dedup", o)
				if err != nil {
					t.Fatal(err)
				}
				return rep, o.Metrics
			}
			base := DefaultOptions(tech, pagetable.Size4K)
			base.Accesses = 30_000

			plain, _ := run(base)

			instrumented := base
			instrumented.Metrics = telemetry.NewRecorder(2_000)
			instrumented.WalkEvents = telemetry.NewEventRing(256)
			withTel, rec := run(instrumented)

			if !reflect.DeepEqual(plain, withTel) {
				t.Errorf("telemetry perturbed the %s report:\nplain: %+v\nwith:  %+v", tech, plain, withTel)
			}
			if len(rec.Series().Epochs) == 0 {
				t.Error("recorder captured no epochs")
			}
		})
	}
}

// TestTelemetryEpochAccounting: the epoch series must tile the measured
// window — interval access counts sum to the run's accesses, boundaries
// chain, and clocks are monotone.
func TestTelemetryEpochAccounting(t *testing.T) {
	rec := telemetry.NewRecorder(1_000)
	o := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
	o.Accesses = 10_500
	o.Metrics = rec
	rep, err := RunProfile("dedup", o)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Series()
	// 10 full epochs plus the flushed partial tail.
	if len(s.Epochs) != 11 {
		t.Fatalf("epochs = %d, want 11", len(s.Epochs))
	}
	var accesses uint64
	for i, e := range s.Epochs {
		accesses += e.Delta.Accesses
		if i > 0 {
			prev := s.Epochs[i-1]
			if e.StartAccesses != prev.EndAccesses || e.StartClock != prev.EndClock {
				t.Errorf("epoch %d does not chain: %+v after %+v", i, e, prev)
			}
		}
		if e.EndClock < e.StartClock {
			t.Errorf("epoch %d clock not monotone", i)
		}
		if i < 10 && e.Delta.Accesses != 1_000 {
			t.Errorf("epoch %d accesses = %d, want 1000", i, e.Delta.Accesses)
		}
	}
	// Machine accesses exceed the op count (instruction fetches translate
	// too); the series must tile exactly whatever the machine measured.
	if accesses != rep.Machine.Accesses {
		t.Errorf("epoch accesses sum to %d, machine measured %d", accesses, rep.Machine.Accesses)
	}
}

// TestMissLogWriteBitsSurviveRoundTrip is the regression test for the
// dropped write bit: a write-heavy run must produce write-flagged records,
// and the flags must survive a save/load cycle.
func TestMissLogWriteBitsSurviveRoundTrip(t *testing.T) {
	var miss trace.MissLog
	o := DefaultOptions(walker.ModeShadow, pagetable.Size4K)
	o.AgileStartNested = false
	o.MissLog = &miss
	// readThenWriteOps stores to every page after reading it, so write
	// misses (and shadow write-protect retries) are guaranteed.
	if _, err := RunOps("write-heavy", readThenWriteOps(64), o); err != nil {
		t.Fatal(err)
	}
	s := miss.Summary()
	if s.Writes == 0 {
		t.Fatal("write-heavy run produced no write-flagged records (write bit dropped again?)")
	}
	var buf bytes.Buffer
	if err := miss.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.LoadMissLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ls := loaded.Summary()
	if ls.Writes != s.Writes || ls.Retries != s.Retries || ls.Total != s.Total {
		t.Errorf("round trip changed summary: %+v -> %+v", s, ls)
	}
}

// TestAdaptationCurveConverges: the tentpole's headline claim. Under the
// churn microbenchmark the per-epoch page-table update cost must start in
// the VMM-mediated range (the shadowed subtree traps every update) and
// converge toward direct-write cost once the write threshold flips the
// churned subtree to nested mode — Table I's agile cell, resolved in time.
func TestAdaptationCurveConverges(t *testing.T) {
	ring := telemetry.NewEventRing(512)
	s, err := AdaptationCurve(2_000, 10, ring)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Epochs) < 4 {
		t.Fatalf("epochs = %d", len(s.Epochs))
	}
	// Epoch 0 is diluted by the setup-phase populate (tables not yet
	// shadowed write direct); epoch 1 is pure churn and fully mediated.
	early := s.Epochs[1].UpdateCost()
	last := s.Epochs[len(s.Epochs)-1].UpdateCost()
	if early <= last {
		t.Errorf("update cost did not fall: epoch 1 = %.0f, final = %.0f", early, last)
	}
	if early < 500 {
		t.Errorf("pre-adaptation update cost = %.0f cycles/update, want VMM-mediated (>= 500)", early)
	}
	// After adaptation the churned subtree is nested: updates go direct and
	// the residual mediated cost per update is far below a single trap.
	if last >= 500 {
		t.Errorf("final update cost = %.0f cycles/update, want < 500 after adaptation", last)
	}
	var flips uint64
	for _, e := range s.Epochs {
		flips += e.Delta.SwitchesToNested
	}
	if flips == 0 {
		t.Error("series shows no Shadow=>Nested switch decisions")
	}
	if ring.Total() == 0 {
		t.Error("event ring captured no walks")
	}
	if FormatAdaptation(s) == "" {
		t.Error("empty adaptation rendering")
	}
}
