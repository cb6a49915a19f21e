package ring

import (
	"errors"
	"testing"
)

// The schedule catalog, pinned. Every consumer that keys behaviour off a
// schedule name — the serving tier's cache (ScheduleUsesSeed), the prefix
// cache (ScheduleIsPrefixStable), the fault-tolerance gate
// (ScheduleDeliveryGuarantee), alias folding (CanonicalScheduleName) — reads
// one of the classifiers below. This table states the whole contract in one
// place so adding a schedule (or an alias) without classifying it everywhere
// fails loudly here instead of silently miskeying a cache.
func TestScheduleCatalogClassification(t *testing.T) {
	cases := []struct {
		name         string
		canonical    string
		usesSeed     bool
		prefixStable bool
		guarantee    DeliveryGuarantee
	}{
		// Canonical names, in ScheduleNames order.
		{"sequential", "sequential", false, true, ExactlyOnce},
		{"random", "random", true, false, ExactlyOnce},
		{"round-robin", "round-robin", false, true, ExactlyOnce},
		{"adversarial", "adversarial", false, false, ExactlyOnce},
		{"sharded", "sharded", false, false, ExactlyOnce},
		{"lossy", "lossy", true, false, ExactlyOnce},
		{"duplicating", "duplicating", true, false, AtLeastOnce},
		{"crash-restart", "crash-restart", true, false, ExactlyOnce},
		{"crash-repair", "crash-repair", true, false, CrashProne},
		// Aliases: every classifier must agree with its canonical target.
		{"fifo", "sequential", false, true, ExactlyOnce},
		{"random-order", "random", true, false, ExactlyOnce},
		{"bounded-delay", "adversarial", false, false, ExactlyOnce},
		{"drop", "lossy", true, false, ExactlyOnce},
		{"at-least-once", "duplicating", true, false, AtLeastOnce},
		{"crash", "crash-repair", true, false, CrashProne},
		{"self-stabilizing", "crash-restart", true, false, ExactlyOnce},
	}

	covered := make(map[string]bool)
	for _, tc := range cases {
		covered[tc.name] = true
		if got := CanonicalScheduleName(tc.name); got != tc.canonical {
			t.Errorf("CanonicalScheduleName(%q) = %q, want %q", tc.name, got, tc.canonical)
		}
		if got := ScheduleUsesSeed(tc.name); got != tc.usesSeed {
			t.Errorf("ScheduleUsesSeed(%q) = %v, want %v", tc.name, got, tc.usesSeed)
		}
		if got := ScheduleIsPrefixStable(tc.name); got != tc.prefixStable {
			t.Errorf("ScheduleIsPrefixStable(%q) = %v, want %v", tc.name, got, tc.prefixStable)
		}
		if got := ScheduleDeliveryGuarantee(tc.name); got != tc.guarantee {
			t.Errorf("ScheduleDeliveryGuarantee(%q) = %v, want %v", tc.name, got, tc.guarantee)
		}
		if tc.name != tc.canonical && !covered[tc.canonical] {
			t.Errorf("alias %q listed before its canonical name %q", tc.name, tc.canonical)
		}
	}

	// The table covers the catalog exactly: every ScheduleNames entry appears,
	// every canonical column value is itself a catalog entry, and a name added
	// to the catalog without a row here fails.
	catalog := make(map[string]bool)
	for _, name := range ScheduleNames() {
		catalog[name] = true
		if !covered[name] {
			t.Errorf("ScheduleNames entry %q has no classification row", name)
		}
		if CanonicalScheduleName(name) != name {
			t.Errorf("ScheduleNames entry %q is not canonical", name)
		}
	}
	for _, tc := range cases {
		if !catalog[tc.canonical] {
			t.Errorf("row %q folds to %q, which is not in ScheduleNames", tc.name, tc.canonical)
		}
	}
	for _, name := range PrefixStableScheduleNames() {
		if !ScheduleIsPrefixStable(name) {
			t.Errorf("PrefixStableScheduleNames lists %q but ScheduleIsPrefixStable rejects it", name)
		}
	}
}

// Every catalog name and alias must resolve to an engine, and the engine's
// delivery guarantee must match the name classifier — the facade trusts the
// name, core.Run trusts the engine, and they must never disagree.
func TestScheduleCatalogResolution(t *testing.T) {
	names := ScheduleNames()
	names = append(names, "fifo", "random-order", "bounded-delay",
		"drop", "at-least-once", "crash", "self-stabilizing")
	for _, name := range names {
		engine, err := NewEngineByName(name, 7)
		if err != nil {
			t.Errorf("NewEngineByName(%q): %v", name, err)
			continue
		}
		if got, want := EngineDeliveryGuarantee(engine), ScheduleDeliveryGuarantee(name); got != want {
			t.Errorf("%q: engine %s guarantees %v, name classifies as %v", name, engine.Name(), got, want)
		}
		switch CanonicalScheduleName(name) {
		case "sharded":
			// A dedicated engine type, not scheduler-backed.
			if _, err := NewSchedulerByName(name, 7); err == nil {
				t.Errorf("NewSchedulerByName(%q) resolved; %q has no scheduler", name, name)
			}
		default:
			if _, err := NewSchedulerByName(name, 7); err != nil {
				t.Errorf("NewSchedulerByName(%q): %v", name, err)
			}
		}
	}
	// "concurrent" named the deleted goroutine-per-processor engine; no alias
	// keeps it alive.
	for _, name := range []string{"bogus", "concurrent"} {
		if _, err := NewEngineByName(name, 0); !errors.Is(err, ErrUnknownSchedule) {
			t.Errorf("NewEngineByName(%q) = %v, want ErrUnknownSchedule", name, err)
		}
	}
	if _, err := NewSchedulerByName("bogus", 0); !errors.Is(err, ErrUnknownSchedule) {
		t.Errorf("NewSchedulerByName(bogus) = %v, want ErrUnknownSchedule", err)
	}
}
