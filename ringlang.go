// Package ringlang is the public facade of the reproduction of Mansour &
// Zaks, "On the Bit Complexity of Distributed Computations in a Ring with a
// Leader" (PODC 1986 / Information and Computation 75, 1987).
//
// The heavy lifting lives in the internal packages (see DESIGN.md for the
// full inventory):
//
//	internal/ring      — the scheduler-pluggable ring-with-a-leader
//	                     simulator with exact bit accounting
//	internal/automata  — DFA/NFA/regex substrate for Theorem 1
//	internal/lang      — the paper's languages and word generators
//	internal/core      — the recognition algorithms and the declarative
//	                     token-pass framework
//	internal/bits      — bit-exact payload strings and counter codes
//	internal/exec      — the batch-execution worker pool behind Batch/Stream
//	internal/trace     — information-state and token analyses
//	internal/election  — the leader-election substrate
//	internal/tm        — the Section 8 TM → ring transformation
//	internal/bench     — the experiment harness behind cmd/ringbench
//	internal/memo      — the serving tier's sharded memoization cache
//	internal/server    — the HTTP serving layer behind cmd/ringserve
//
// The entry point is the Client: a long-lived, concurrency-safe handle on
// one algorithm under one delivery schedule, built with functional options
// and driven with a context.Context —
//
//	client, err := ringlang.NewClient("three-counters", "",
//		ringlang.WithSchedule("random"), ringlang.WithSeed(7))
//	defer client.Close()
//	report, err := client.Recognize(ctx, ringlang.WordFromString("001122"))
//	for i, res := range client.Stream(ctx, words) { … }
//
// Client.Batch and Client.Stream report per-word Results (a bad word never
// fails its neighbours), cancellation propagates down to the engines, and
// every failure wraps one of the package's typed sentinel errors
// (ErrUnknownAlgorithm, ErrUnknownLanguage, ErrUnknownSchedule, ErrCanceled,
// ErrClosed). Close is idempotent and safe under concurrent calls; a closed
// client reports ErrClosed instead of panicking. CurrentCatalog exposes the
// algorithm/language/schedule name catalogs in one value — what `ringbench
// -list` prints and ringserve serves at /v1/catalog.
package ringlang

import (
	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/memo"
	"ringlang/internal/ring"
)

// Re-exported core types. The aliases keep the facade thin: values returned
// here interoperate directly with the internal packages used by the examples.
type (
	// Word is the pattern on the ring, one letter per processor, leader first.
	Word = lang.Word
	// Language is a decidable language with word generators.
	Language = lang.Language
	// Recognizer is a distributed recognition algorithm.
	Recognizer = core.Recognizer
	// Engine executes an algorithm on a ring; see WithEngine.
	Engine = ring.Engine
	// Verdict is the leader's accept/reject decision.
	Verdict = ring.Verdict
	// Stats is the exact per-execution bit and message accounting.
	Stats = ring.Stats
	// Trace is the recorded event sequence of a run (see WithTrace).
	Trace = ring.Trace
	// PrefixCache reuses shared-prefix computation across runs; build one
	// with NewPrefixCache and attach it with WithSharedPrefixCache (or let
	// WithPrefixCache build a client-private one).
	PrefixCache = core.PrefixCache
	// PrefixStats is a PrefixCache's hit/miss/eviction counters.
	PrefixStats = memo.PrefixStats
	// FaultReport is the injected-fault accounting of a run under a fault
	// schedule: drops and retransmitted bits (lossy), duplicates and their
	// bits (duplicating), crashed processors plus rerouted or deferred frames
	// (crash-repair / crash-restart). See Report.Faults.
	FaultReport = ring.FaultReport
	// DeliveryGuarantee classifies what a schedule still promises about
	// delivery: exactly-once, at-least-once, or crash-prone (see
	// ring.ScheduleDeliveryGuarantee).
	DeliveryGuarantee = ring.DeliveryGuarantee
)

// NewPrefixCache builds a prefix-checkpoint cache bounded to roughly
// maxBytes of retained checkpoint state, for sharing across clients with
// WithSharedPrefixCache. See WithPrefixCache for what the cache does.
func NewPrefixCache(maxBytes int64) *PrefixCache {
	return core.NewPrefixCache(maxBytes)
}

// Verdict values.
const (
	VerdictAccept = ring.VerdictAccept
	VerdictReject = ring.VerdictReject
)

// WordFromString converts a Go string into a ring pattern.
func WordFromString(s string) Word {
	return lang.WordFromString(s)
}

// Report is the outcome of one recognition run.
type Report struct {
	// Algorithm and LanguageName identify what ran.
	Algorithm    string
	LanguageName string
	// Verdict is the leader's decision; Member is the language's own answer.
	Verdict Verdict
	Member  bool
	// Messages and Bits are the execution totals; BitsPerProcessor is
	// Bits / n, the quantity whose asymptotics the paper classifies.
	Messages         int
	Bits             int
	BitsPerProcessor float64
	MaxMessageBits   int
	ProcessorCount   int
	// Schedule is the delivery schedule the run executed under.
	Schedule string
	// Stats is the full accounting snapshot (per-link traffic included). It
	// is independent of any pooled run state and safe to retain.
	Stats *Stats
	// Faults is the injected-fault accounting: nil under reliable schedules,
	// always non-nil (even when all-zero) under the fault schedules "lossy",
	// "duplicating", "crash-restart" and "crash-repair". Fault overhead lives
	// here, never in Stats — Bits counts what the algorithm sent, so verdict
	// and Stats stay identical across every exactly-once schedule.
	Faults *FaultReport
	// Trace is the recorded event sequence; nil unless the client was built
	// with WithTrace.
	Trace Trace
}

// Catalog is the package's run surface in one value: every algorithm,
// language and schedule name the constructors accept. It is what
// `ringbench -list` prints and what ringserve serves at /v1/catalog, so the
// CLI, the HTTP API and the docs-drift CI check all describe the same set.
type Catalog struct {
	// Algorithms are the names accepted by NewClient.
	Algorithms []string
	// Languages are the names accepted by algorithms that take one.
	Languages []string
	// Schedules are the names accepted by WithSchedule.
	Schedules []string
}

// CurrentCatalog returns the algorithm/language/schedule catalogs. The
// slices are freshly built per call and safe to retain or mutate.
func CurrentCatalog() Catalog {
	return Catalog{
		Algorithms: AlgorithmNames(),
		Languages:  LanguageNames(),
		Schedules:  ScheduleNames(),
	}
}

// AlgorithmNames lists the algorithms accepted by NewClient.
func AlgorithmNames() []string {
	return core.AlgorithmNames()
}

// LanguageNames lists the language names accepted by NewClient for the
// algorithms that take one.
func LanguageNames() []string {
	return lang.CatalogNames()
}

// ScheduleNames lists the delivery schedules accepted by WithSchedule.
func ScheduleNames() []string {
	return ring.ScheduleNames()
}

// Delivery guarantees, re-exported for classifying ScheduleNames entries.
const (
	// DeliveryExactlyOnce: every message arrives exactly once, in per-link
	// order — the paper's model. All verdicts and bit totals are identical
	// across these schedules.
	DeliveryExactlyOnce = ring.ExactlyOnce
	// DeliveryAtLeastOnce: messages may be duplicated ("duplicating").
	DeliveryAtLeastOnce = ring.AtLeastOnce
	// DeliveryCrashProne: a processor may fail permanently ("crash-repair").
	DeliveryCrashProne = ring.CrashProne
)

// ScheduleDeliveryGuarantee classifies what the named schedule still promises
// about delivery. Schedules weaker than DeliveryExactlyOnce refuse to run raw
// algorithms with ErrDeliveryNotTolerated unless WithAllowFaults opts in.
func ScheduleDeliveryGuarantee(name string) DeliveryGuarantee {
	return ring.ScheduleDeliveryGuarantee(name)
}

// ScheduleUsesSeed reports whether the named schedule's delivery order or
// fault pattern is driven by WithSeed ("random" and the fault schedules).
// Seedless schedules ignore the seed — callers building cache keys or
// validating flags should branch on this instead of enumerating names.
func ScheduleUsesSeed(name string) bool {
	return ring.ScheduleUsesSeed(name)
}
