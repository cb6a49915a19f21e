package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"ringlang"
	"ringlang/internal/core"
	"ringlang/internal/exec"
	"ringlang/internal/memo"
	"ringlang/internal/ring"
)

// Config sizes the serving tier. The zero value is serviceable: one engine
// worker per CPU, a 4096-entry cache, and 4×GOMAXPROCS in-flight run requests.
type Config struct {
	// Workers is the size of the engine pool every request shares; values
	// < 1 mean one worker per CPU.
	Workers int
	// CacheCapacity is the total memo cache size in entries. Negative
	// disables caching entirely; zero means DefaultCacheCapacity.
	CacheCapacity int
	// CacheShards is the memo shard count, rounded up to a power of two;
	// zero means memo.DefaultShards.
	CacheShards int
	// MaxInFlight bounds concurrently served recognize/batch/stream
	// requests; past it the server answers 429. Values < 1 mean
	// 4×GOMAXPROCS.
	MaxInFlight int
	// MaxBatchWords caps the words of one batch or stream request; past it
	// the server answers 413. Values < 1 mean DefaultMaxBatchWords.
	MaxBatchWords int
	// MaxWordLetters caps the length of a single word (the ring size a
	// request may ask for); longer words fail with a word-too-large error
	// instead of building an arbitrarily large ring. Values < 1 mean
	// DefaultMaxWordLetters.
	MaxWordLetters int
	// MaxBodyBytes caps the request body read per call, enforced with
	// http.MaxBytesReader before any decoding. Values < 1 mean
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// PrefixCacheBytes sizes the prefix-checkpoint cache every engine run
	// shares: where the memo cache answers exact repeats without an engine
	// run, this tier makes *distinct* words cheaper when they share
	// prefixes, by resuming runs from stored engine checkpoints
	// (core.RunOptions.Prefix). Negative disables the tier; zero means
	// DefaultPrefixCacheBytes.
	PrefixCacheBytes int64
}

// Defaults for the zero Config.
const (
	DefaultCacheCapacity    = 4096
	DefaultMaxBatchWords    = 4096
	DefaultMaxWordLetters   = 1 << 16
	DefaultMaxBodyBytes     = 1 << 20
	DefaultPrefixCacheBytes = 32 << 20
)

// runnerCapacity bounds the resolved keys the server keeps. A runner is a
// recognizer and an engine and owns no goroutines, so evicting one just
// drops it: key churn (a fresh random seed per request) costs a rebuild,
// never a leak.
const runnerCapacity = 64

// runKey identifies what a request runs. Schedule is normalized (canonical
// name, defaulted) and seed is zeroed for deterministic schedules, so
// equivalent requests share a runner and memo entries.
type runKey struct {
	algorithm string
	language  string
	schedule  string
	seed      int64
}

// runner is what one key resolves to: the recognizer and the engine every
// job of that key runs on. Engines are safe for concurrent use, so all pool
// workers share it.
type runner struct {
	rec      core.Recognizer
	engine   ring.Engine
	schedule string // the key's canonical schedule, the reports' label
}

// Server holds the shared engine pool, the memo cache and the admission
// semaphore behind the HTTP handlers. Build with New; always Close.
type Server struct {
	cfg     Config
	pool    *exec.Pool
	runners *memo.Cache[*runner]
	cache   *memo.Cache[reportPayload] // nil when caching is disabled
	prefix  *core.PrefixCache          // nil when the prefix tier is disabled
	sem     chan struct{}

	mu       sync.Mutex
	closed   bool
	draining bool
	// running counts admitted engine work; Close waits for it before
	// closing the pool.
	running sync.WaitGroup

	// streamDone, when set (tests), receives the terminal per-word error of
	// a stream request — how the disconnect tests observe ErrCanceled.
	streamDone func(err error)
}

// New builds a Server from cfg, applying the documented defaults, and starts
// its engine pool.
func New(cfg Config) *Server {
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatchWords < 1 {
		cfg.MaxBatchWords = DefaultMaxBatchWords
	}
	if cfg.MaxWordLetters < 1 {
		cfg.MaxWordLetters = DefaultMaxWordLetters
	}
	if cfg.MaxBodyBytes < 1 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = DefaultCacheCapacity
	}
	if cfg.PrefixCacheBytes == 0 {
		cfg.PrefixCacheBytes = DefaultPrefixCacheBytes
	}
	s := &Server{
		cfg:     cfg,
		pool:    exec.NewPool(cfg.Workers),
		runners: memo.New[*runner](runnerCapacity, 1),
		sem:     make(chan struct{}, cfg.MaxInFlight),
	}
	if cfg.CacheCapacity > 0 {
		s.cache = memo.New[reportPayload](cfg.CacheCapacity, cfg.CacheShards)
	}
	if cfg.PrefixCacheBytes > 0 {
		s.prefix = core.NewPrefixCache(cfg.PrefixCacheBytes)
	}
	return s
}

// Handler returns the routed handler; one Server can serve many listeners.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/recognize", s.handleRecognize)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// BeginDrain flips /healthz to "draining"/503 while the run endpoints keep
// serving, so a load balancer health-checking the server stops routing new
// traffic before the listener goes away. cmd/ringserve calls it the moment
// the termination signal arrives, ahead of http.Server.Shutdown.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close retires the server: later run requests answer 503, and once the
// engine work already admitted has drained the pool's workers exit. Close
// waits for that work, not for handlers still writing its results out.
// Idempotent: later calls return at once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	s.mu.Unlock()
	s.running.Wait()
	s.pool.Close()
	return nil
}

// CacheStats reports the memo cache counters (zero when caching is off);
// /healthz serves the same numbers.
func (s *Server) CacheStats() memo.Stats {
	if s.cache == nil {
		return memo.Stats{}
	}
	return s.cache.Stats()
}

// PrefixStats reports the shared prefix-checkpoint cache counters (zero when
// the tier is off); /healthz serves the same numbers next to the exact-hit
// cache's.
func (s *Server) PrefixStats() memo.PrefixStats {
	if s.prefix == nil {
		return memo.PrefixStats{}
	}
	return s.prefix.Stats()
}

// keyFor builds the canonical key of one request: the schedule is folded
// onto its canonical name (internal/ring owns the alias table, so the server
// cannot drift from the engine catalog) and the seed is zeroed for
// seed-independent schedules, so equivalent requests converge on one runner
// and one cache entry while randomized runs stay keyed by their seed.
// Unknown schedule names pass through untouched — resolving the runner is
// the validator and reports ErrUnknownSchedule.
//
//ring:deterministic
func keyFor(algorithm, language, schedule string, seed int64) runKey {
	if schedule == "" {
		schedule = "sequential"
	} else {
		schedule = ring.CanonicalScheduleName(schedule)
	}
	if !ring.ScheduleUsesSeed(schedule) {
		seed = 0
	}
	return runKey{algorithm: algorithm, language: language, schedule: schedule, seed: seed}
}

// memoKey is the memo key of one word under a run key; the runner cache
// uses the empty word.
//
//ring:deterministic
func (k runKey) memoKey(word string) memo.Key {
	return memo.Key{
		Algorithm: k.algorithm,
		Language:  k.language,
		Schedule:  k.schedule,
		Seed:      k.seed,
		Word:      word,
	}
}

// runner resolves a key to its recognizer and engine. Construction —
// recognizer building, DFA work for the regular algorithms — runs once per
// key at a time and off any server lock; lookup failures wrap the catalog
// sentinels (ErrUnknownAlgorithm, ErrUnknownLanguage, ErrUnknownSchedule)
// and are not cached.
func (s *Server) runner(k runKey) (*runner, error) {
	rn, _, err := s.runners.Do(k.memoKey(""), func() (*runner, error) {
		rec, err := core.NewRecognizerByName(k.algorithm, k.language)
		if err != nil {
			return nil, err
		}
		engine, err := ring.NewEngineByName(k.schedule, k.seed)
		if err != nil {
			return nil, err
		}
		return &runner{rec: rec, engine: engine, schedule: k.schedule}, nil
	})
	return rn, err
}

// admit takes one in-flight slot for engine work and registers the work
// with Close, which waits for it before closing the pool. It fails with
// ringlang.ErrClosed once Close has begun and with errOverloaded when every
// slot is taken. The returned release must be called exactly once, when the
// pool work is done.
func (s *Server) admit() (release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ringlang.ErrClosed
	}
	select {
	case s.sem <- struct{}{}:
	default:
		return nil, errOverloaded
	}
	s.running.Add(1)
	return func() {
		s.running.Done()
		<-s.sem
	}, nil
}

// inflight is the number of currently admitted run requests.
func (s *Server) inflight() int { return len(s.sem) }

// isDraining reports whether BeginDrain or Close has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// isClosed reports whether Close has begun. Handlers check it before the
// cache lookups, so a closed server answers 503 uniformly, warm keys
// included.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// String describes the server's sizing, for startup logs.
func (s *Server) String() string {
	cache := "off"
	if s.cache != nil {
		cache = fmt.Sprintf("%d entries", s.cfg.CacheCapacity)
	}
	prefix := "off"
	if s.prefix != nil {
		prefix = fmt.Sprintf("%d bytes", s.cfg.PrefixCacheBytes)
	}
	return fmt.Sprintf("ringserve: workers=%d cache=%s prefixCache=%s maxInFlight=%d maxBatchWords=%d",
		s.pool.Workers(), cache, prefix, s.cfg.MaxInFlight, s.cfg.MaxBatchWords)
}
