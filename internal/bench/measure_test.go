package bench

import (
	"reflect"
	"testing"

	"ringlang/internal/core"
	"ringlang/internal/lang"
)

func TestNormalizeDefaultsAndSetFlags(t *testing.T) {
	got := MeasureOptions{}.normalize()
	if got.Seed != DefaultSeed {
		t.Errorf("zero Seed normalized to %d, want DefaultSeed", got.Seed)
	}
	if got.Window != 8 {
		t.Errorf("zero Window normalized to %d, want 8", got.Window)
	}
	if got.Workers != 1 {
		t.Errorf("zero Workers normalized to %d, want the serial default 1", got.Workers)
	}

	// The regression: an explicit zero seed (or window) used to be silently
	// swallowed by the defaulting, making seed 0 unrunnable.
	got = MeasureOptions{SeedSet: true, WindowSet: true}.normalize()
	if got.Seed != 0 {
		t.Errorf("explicit zero Seed replaced by %d", got.Seed)
	}
	if got.Window != 0 {
		t.Errorf("explicit zero Window replaced by %d", got.Window)
	}

	got = MeasureOptions{Seed: 7, Window: 3}.normalize()
	if got.Seed != 7 || got.Window != 3 {
		t.Errorf("non-zero options rewritten: %+v", got)
	}
}

func TestExplicitSeedZeroIsRunnable(t *testing.T) {
	rec := core.NewThreeCounters()
	_, _, defaultWord, err := MeasureOne(rec, 16, MeasureOptions{Kind: RandomWords}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, _, zeroWord, err := MeasureOne(rec, 16, MeasureOptions{Kind: RandomWords, SeedSet: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if zeroWord.String() == defaultWord.String() {
		t.Errorf("seed 0 generated the DefaultSeed word %q — the explicit zero was swallowed", zeroWord.String())
	}
}

func TestExplicitWindowZeroIsExact(t *testing.T) {
	// (ab)* has no member of odd length; with a real zero window the sweep
	// must fail instead of silently widening to the default window of 8.
	reg, err := lang.NewRegularFromRegex("(ab)*", "(ab)*")
	if err != nil {
		t.Fatal(err)
	}
	rec := core.NewRegularOnePass(reg)
	if _, err := MeasureRecognizer(rec, []int{7}, MeasureOptions{WindowSet: true}); err == nil {
		t.Error("window 0 sweep over an impossible size succeeded; the explicit zero was swallowed")
	}
	if _, err := MeasureRecognizer(rec, []int{8}, MeasureOptions{WindowSet: true}); err != nil {
		t.Errorf("window 0 sweep over an exact size failed: %v", err)
	}
}

// TestMeasureWorkersParity pins the batch-sweep determinism: any worker
// count yields the points of the serial sweep, under the default engine, a
// default schedule installed with SetDefaultSchedule, and the random-word
// kind.
func TestMeasureWorkersParity(t *testing.T) {
	sizes := []int{6, 9, 12, 21, 30}
	cases := []struct {
		name     string
		rec      core.Recognizer
		opts     MeasureOptions
		schedule string // installed as the default, seeded by opts.Seed
	}{
		{"default-engine", core.NewThreeCounters(), MeasureOptions{}, ""},
		{"random-schedule", core.NewBalancedCounter(), MeasureOptions{Seed: 5}, "random"},
		{"random-words", core.NewCompareWcW(), MeasureOptions{Kind: RandomWords}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.schedule != "" {
				if err := SetDefaultSchedule(tc.schedule, tc.opts.Seed); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					if err := SetDefaultSchedule("sequential", 0); err != nil {
						t.Error(err)
					}
				})
			}
			serialOpts := tc.opts
			serialOpts.Workers = 1
			serial, err := MeasureRecognizer(tc.rec, sizes, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 5} {
				pooledOpts := tc.opts
				pooledOpts.Workers = workers
				pooled, err := MeasureRecognizer(tc.rec, sizes, pooledOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, pooled) {
					t.Errorf("workers=%d: %+v != serial %+v", workers, pooled, serial)
				}
			}
		})
	}
}
