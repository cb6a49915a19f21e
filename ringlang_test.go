package ringlang

import (
	"context"
	"errors"
	"testing"
)

// recognize runs one word on a fresh client, the shape of a one-off call.
func recognize(t *testing.T, algorithm, language, word string, opts ...Option) (*Report, error) {
	t.Helper()
	client, err := NewClient(algorithm, language, opts...)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	return client.Recognize(context.Background(), WordFromString(word))
}

func TestRecognizeFacade(t *testing.T) {
	cases := []struct {
		algorithm string
		language  string
		word      string
		want      Verdict
	}{
		{"three-counters", "", "001122", VerdictAccept},
		{"three-counters", "", "010212", VerdictReject},
		{"compare-wcw", "", "abcab", VerdictAccept},
		{"regular-one-pass", "even-ones", "0110", VerdictAccept},
		{"regular-one-pass", "even-ones", "0111", VerdictReject},
	}
	for _, c := range cases {
		report, err := recognize(t, c.algorithm, c.language, c.word)
		if err != nil {
			t.Fatalf("Recognize(%s, %q): %v", c.algorithm, c.word, err)
		}
		if report.Verdict != c.want {
			t.Errorf("Recognize(%s, %q) = %v, want %v", c.algorithm, c.word, report.Verdict, c.want)
		}
		if (report.Verdict == VerdictAccept) != report.Member {
			t.Errorf("verdict and language membership disagree for %q", c.word)
		}
		if report.Bits <= 0 || report.Messages <= 0 || report.ProcessorCount != len(c.word) {
			t.Errorf("report accounting looks wrong: %+v", report)
		}
	}
}

// TestRecognizeConcurrentOption pins that "concurrent" is not a schedule:
// the goroutine-per-processor engine it once named is gone and no alias maps
// it elsewhere, so the client refuses it as unknown. Runs on real goroutines
// use "sharded".
func TestRecognizeConcurrentOption(t *testing.T) {
	_, err := recognize(t, "three-counters", "", "000111222", WithSchedule("concurrent"))
	if !errors.Is(err, ErrUnknownSchedule) {
		t.Errorf("WithSchedule(concurrent): err = %v, want ErrUnknownSchedule", err)
	}
}

func TestRecognizeScheduleOption(t *testing.T) {
	const word = "000111222"
	base, err := recognize(t, "three-counters", "", word)
	if err != nil {
		t.Fatal(err)
	}
	if base.Schedule != "sequential" {
		t.Errorf("default schedule = %q, want sequential", base.Schedule)
	}
	for _, schedule := range ScheduleNames() {
		report, err := recognize(t, "three-counters", "", word, WithSchedule(schedule), WithSeed(5))
		if ScheduleDeliveryGuarantee(schedule) != DeliveryExactlyOnce {
			// A raw algorithm under weaker-than-exactly-once delivery is
			// refused, typed — never run into a silently wrong verdict.
			if !errors.Is(err, ErrDeliveryNotTolerated) {
				t.Errorf("schedule %q: got %v, want ErrDeliveryNotTolerated", schedule, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("schedule %q: %v", schedule, err)
		}
		if report.Schedule != schedule {
			t.Errorf("report schedule = %q, want %q", report.Schedule, schedule)
		}
		if report.Bits != base.Bits || report.Verdict != base.Verdict {
			t.Errorf("schedule %q disagrees with sequential: %+v vs %+v", schedule, report, base)
		}
	}
	if _, err := recognize(t, "three-counters", "", word, WithSchedule("bogus")); err == nil {
		t.Error("expected error for unknown schedule")
	}
	if len(ScheduleNames()) < 5 {
		t.Error("ScheduleNames too short")
	}
}

func TestRecognizeErrors(t *testing.T) {
	if _, err := recognize(t, "bogus", "", "ab"); err == nil {
		t.Error("expected error for unknown algorithm")
	}
	if _, err := recognize(t, "three-counters", "", ""); err == nil {
		t.Error("expected error for empty ring")
	}
}

func TestNameCatalogs(t *testing.T) {
	if len(AlgorithmNames()) < 10 {
		t.Error("AlgorithmNames too short")
	}
	if len(LanguageNames()) < 10 {
		t.Error("LanguageNames too short")
	}
}
