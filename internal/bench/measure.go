package bench

import (
	"context"
	"fmt"
	"math/rand"

	"ringlang"
	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// DefaultSeed makes every sweep reproducible; the workload generators are
// seeded per (experiment, size) so adding sizes does not perturb existing
// rows.
const DefaultSeed int64 = 20260616

// WordKind selects which kind of word a sweep feeds the recognizer.
type WordKind int

const (
	// MemberWords feeds member words (accepting runs).
	MemberWords WordKind = iota + 1
	// NonMemberWords feeds near-miss non-members (rejecting runs).
	NonMemberWords
	// RandomWords feeds uniformly random words over the alphabet.
	RandomWords
)

// MeasureOptions configures a sweep. Every sweep runs on the package
// default engine (sequential unless SetDefaultSchedule changed it);
// experiments that sweep the schedule axis run their engines themselves.
type MeasureOptions struct {
	// Kind selects member / non-member / random inputs (default member).
	Kind WordKind
	// Seed defaults to DefaultSeed. It seeds the word generators. A zero
	// Seed means "use the default"; to actually sweep with seed 0, set
	// SeedSet.
	Seed int64
	// SeedSet makes an explicit zero Seed usable: when true, Seed is taken
	// verbatim instead of being replaced by DefaultSeed.
	SeedSet bool
	// Window is how far above the requested size the generator may go when
	// the language has no word of exactly that size (default 8).
	Window int
	// WindowSet makes an explicit zero Window (exact sizes only, no slack)
	// usable: when true, Window is taken verbatim instead of defaulting to 8.
	WindowSet bool
	// Workers is the number of worker goroutines the sweep fans its sizes
	// across. Zero means the package default (serial unless
	// SetDefaultWorkers changed it); 1 forces serial. Any worker count
	// produces results bit-identical to the serial sweep.
	Workers int
	// Ctx cancels the sweep: runs abort with an error wrapping
	// ring.ErrCanceled. Nil means the package default (context.Background
	// unless SetDefaultContext changed it — cmd/ringbench installs its
	// signal context there, so Ctrl-C stops a sweep mid-flight).
	Ctx context.Context
}

func (o MeasureOptions) normalize() MeasureOptions {
	if o.Kind == 0 {
		o.Kind = MemberWords
	}
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = DefaultSeed
	}
	if o.Window == 0 && !o.WindowSet {
		o.Window = 8
	}
	if o.Workers == 0 {
		o.Workers = defaultWorkers
	}
	if o.Ctx == nil {
		o.Ctx = defaultCtx
	}
	return o
}

// defaultEngine is the engine every sweep runs on. cmd/ringbench's
// -schedule flag replaces it via SetDefaultSchedule so a whole experiment
// run can be repeated under another delivery schedule.
var defaultEngine ring.Engine = ring.NewSequentialEngine()

// SetDefaultSchedule routes every sweep through the named schedule (see
// ring.ScheduleNames), seeded by seed. It mutates a package-wide default and
// is not synchronized: call it once at process start, before any sweep runs,
// the way cmd/ringbench does.
func SetDefaultSchedule(name string, seed int64) error {
	engine, err := ring.NewEngineByName(name, seed)
	if err != nil {
		return err
	}
	defaultEngine = engine
	return nil
}

// defaultWorkers is the sweep parallelism used when MeasureOptions.Workers
// is zero; 1 (or less) means serial. cmd/ringbench's -workers flag sets it.
var defaultWorkers = 1

// SetDefaultWorkers routes every sweep that does not set its own Workers
// through a pool of n workers (n < 1 selects runtime.GOMAXPROCS). Like
// SetDefaultSchedule it is a process-start knob, not a synchronized one.
func SetDefaultWorkers(n int) {
	defaultWorkers = n
}

// defaultCtx is the context sweeps run under when MeasureOptions.Ctx is nil;
// cmd/ringbench's signal handling replaces it via SetDefaultContext.
var defaultCtx = context.Background()

// SetDefaultContext routes every sweep that does not carry its own Ctx
// through ctx, so one cancellation stops a whole experiment run. Like
// SetDefaultSchedule it is a process-start knob, not a synchronized one.
func SetDefaultContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	defaultCtx = ctx
}

// wordForSize produces the input word for one sweep point.
func wordForSize(language lang.Language, n int, kind WordKind, window int, rng *rand.Rand) (lang.Word, error) {
	switch kind {
	case NonMemberWords:
		for d := 0; d <= window; d++ {
			if w, ok := language.GenerateNonMember(n+d, rng); ok {
				return w, nil
			}
		}
		return nil, fmt.Errorf("bench: %s has no non-member near length %d", language.Name(), n)
	case RandomWords:
		return lang.RandomWord(language.Alphabet(), n, rng), nil
	default:
		w, _, err := lang.MemberOrSkip(language, n, window, rng)
		if err != nil {
			return nil, fmt.Errorf("bench: %s has no member near length %d: %w", language.Name(), n, err)
		}
		return w, nil
	}
}

// MeasureRecognizer runs one recognizer across the ring sizes and returns one
// Point per size. Verdicts are cross-checked against the language. With
// Workers above 1 the sizes are fanned across a batch-execution pool; the
// points are bit-identical to the serial sweep in either case, because every
// size's word generator and delivery schedule are seeded independently of
// execution order.
func MeasureRecognizer(rec core.Recognizer, sizes []int, opts MeasureOptions) ([]Point, error) {
	opts = opts.normalize()
	engine := defaultEngine
	if opts.Workers != 1 {
		return measureParallel(rec, sizes, opts, engine)
	}
	points := make([]Point, 0, len(sizes))
	for _, n := range sizes {
		word, err := sweepWord(rec, n, opts)
		if err != nil {
			return nil, err
		}
		var res *ring.Result
		if opts.Kind == RandomWords {
			res, err = core.Run(rec, word, core.RunOptions{Engine: engine, Ctx: opts.Ctx})
		} else {
			res, err = core.Check(rec, word, core.RunOptions{Engine: engine, Ctx: opts.Ctx})
		}
		if err != nil {
			return nil, fmt.Errorf("bench: %s at n=%d: %w", rec.Name(), n, err)
		}
		points = append(points, Point{N: len(word), Bits: res.Stats.Bits, Messages: res.Stats.Messages})
	}
	return points, nil
}

// sweepWord generates the input word for size n of a sweep, with the
// per-size seeding that keeps every sweep point independent of the others.
func sweepWord(rec core.Recognizer, n int, opts MeasureOptions) (lang.Word, error) {
	rng := rand.New(rand.NewSource(opts.Seed + int64(n)))
	return wordForSize(rec.Language(), n, opts.Kind, opts.Window, rng)
}

// measureParallel is the pooled sweep behind MeasureRecognizer: words are
// generated up front (cheap and sequential), the runs fan out through a
// ringlang.Client batch, whose pool workers reuse their run state per size.
func measureParallel(rec core.Recognizer, sizes []int, opts MeasureOptions, engine ring.Engine) ([]Point, error) {
	client, err := ringlang.NewClientWith(rec, ringlang.WithEngine(engine), ringlang.WithWorkers(opts.Workers))
	if err != nil {
		return nil, err
	}
	defer client.Close()
	words := make([]lang.Word, len(sizes))
	for i, n := range sizes {
		word, err := sweepWord(rec, n, opts)
		if err != nil {
			return nil, err
		}
		words[i] = word
	}
	results := client.Batch(opts.Ctx, words)
	points := make([]Point, len(sizes))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("bench: %s at n=%d: %w", rec.Name(), sizes[i], r.Err)
		}
		// Mirrors core.Check on the serial path: the client reports the
		// verdict and the language's own answer, the sweep insists they agree.
		if opts.Kind != RandomWords && (r.Report.Verdict == ring.VerdictAccept) != r.Report.Member {
			return nil, fmt.Errorf("bench: %s at n=%d: decided %v on %q but the language says member=%v",
				rec.Name(), sizes[i], r.Report.Verdict, words[i].String(), r.Report.Member)
		}
		points[i] = Point{N: len(words[i]), Bits: r.Report.Bits, Messages: r.Report.Messages}
	}
	return points, nil
}

// MeasureOne runs a recognizer on a single generated word and returns the
// point, the engine result and the word itself (used by experiments that need
// traces and per-processor inputs).
func MeasureOne(rec core.Recognizer, n int, opts MeasureOptions, recordTrace bool) (Point, *ring.Result, lang.Word, error) {
	opts = opts.normalize()
	word, err := sweepWord(rec, n, opts)
	if err != nil {
		return Point{}, nil, nil, err
	}
	res, err := core.Run(rec, word, core.RunOptions{Engine: defaultEngine, RecordTrace: recordTrace, Ctx: opts.Ctx})
	if err != nil {
		return Point{}, nil, nil, fmt.Errorf("bench: %s at n=%d: %w", rec.Name(), n, err)
	}
	return Point{N: len(word), Bits: res.Stats.Bits, Messages: res.Stats.Messages}, res, word, nil
}

// InputsForTrace renders per-processor inputs for information-state analysis
// of a run on the given word.
func InputsForTrace(word lang.Word) []string {
	out := make([]string, len(word))
	for i, letter := range word {
		out[i] = string(letter)
	}
	return out
}
