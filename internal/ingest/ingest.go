// Package ingest implements the high-throughput streaming ingestion
// engine: a pool of worker goroutines that shard the r sketch copies of
// every stream's synopsis family across disjoint copy ranges.
//
// The paper's synopsis is r independent 2-level hash sketches per
// stream, and an update ⟨i, e, ±v⟩ costs r·(s+1) counter additions —
// by far the dominant cost of ingest. The producer folds each batch of
// accepted updates through a Coalescer (digest.go) into one net delta
// per (stream, element), resolved to packed digests from the engine's
// DigestCache (hashing only the misses), and fans the digest groups out
// to every worker. Because the copies are independent and counter
// updates are commutative additions, copy ranges owned by different
// workers touch disjoint storage: the hot path needs no locks at all.
// Worker w replays the whole batch on its own [lo_w, hi_w) copy shard
// via core.Family.UpdateRangeBatchDigest. Synopsis deltas (from other
// sites, merged by linearity) shard the same way through
// core.Family.MergeRange, so merges and updates interleave freely
// without quiescing the pipeline.
//
// A Drain barrier (a sentinel work item carrying a WaitGroup, enqueued
// behind all outstanding batches on every worker's FIFO queue) gives
// the quiesced points at which Snapshot, Flush, and View read the
// synopses consistently.
package ingest

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

// Options tunes the engine. The zero value selects sane defaults.
type Options struct {
	// Workers is the number of shard workers. Defaults to GOMAXPROCS,
	// and is capped at the number of sketch copies (a worker with an
	// empty copy range would be useless).
	Workers int
	// BatchSize is how many accepted updates are buffered before being
	// fanned out to the workers. Defaults to 256.
	BatchSize int
	// QueueLen is the per-worker queue depth in batches; submitting
	// blocks (backpressure) when a worker falls this far behind.
	// Defaults to 8.
	QueueLen int
	// DigestCache is the capacity, in distinct elements, of the
	// per-engine digest cache (rounded up to a power of two). Because
	// every family in the engine is built from the same stored coins,
	// one cache serves all streams. 0 selects the default (8192
	// entries ≈ copies·8 bytes each); negative means no cache: the
	// producer batch-hashes every coalesced update.
	DigestCache int
	// Obs registers the engine's metrics (see OPERATIONS.md, "ingest_*")
	// on this registry. nil disables export; the engine still counts
	// internally at one atomic add per event.
	Obs *obs.Registry
	// Log receives engine lifecycle and error records. nil discards.
	Log *obs.Logger
}

func (o Options) withDefaults(copies int) Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > copies {
		o.Workers = copies
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 8
	}
	if o.DigestCache == 0 {
		o.DigestCache = 8192
	}
	if o.DigestCache > 0 {
		// Round up to a power of two so slot selection is a mask.
		n := 1
		for n < o.DigestCache {
			n <<= 1
		}
		o.DigestCache = n
	}
	return o
}

// digestGroup is one family's worth of coalesced, digest-resolved
// updates, shaped for the workers' copy-major batch replay
// (core.Family.UpdateRangeBatchDigest).
type digestGroup struct {
	fam    *core.Family
	digs   []core.Digest
	deltas []int64
}

// workItem is one unit handed to every worker: a coalesced update
// batch, an optional delta merge, and/or a barrier to arm.
type workItem struct {
	groups  []digestGroup
	target  *core.Family // merge target (nil if no merge)
	delta   *core.Family // aligned delta to add into target
	barrier *sync.WaitGroup
}

type worker struct {
	lo, hi int
	ch     chan workItem

	batches *obs.Counter // work items carrying updates, applied by this worker
	applied *obs.Counter // updates applied to this worker's copy shard
}

func (w *worker) run(wg *sync.WaitGroup, fail func(error)) {
	defer wg.Done()
	for it := range w.ch {
		if len(it.groups) > 0 {
			// Digest replay: s+1 additions per copy in [lo, hi), no
			// hashing — the digests were resolved by the producer. Each
			// group replays copy-major so a copy's counter slab streams
			// through cache once per batch, not once per element.
			n := 0
			for _, g := range it.groups {
				g.fam.UpdateRangeBatchDigest(w.lo, w.hi, g.digs, g.deltas)
				n += len(g.digs)
			}
			w.batches.Inc()
			w.applied.Add(uint64(n))
		}
		if it.delta != nil {
			// Alignment was validated at submit time; a failure here
			// means corruption, surfaced on the next Err call.
			if err := it.target.MergeRange(w.lo, w.hi, it.delta); err != nil {
				fail(err)
			}
		}
		if it.barrier != nil {
			it.barrier.Done()
		}
	}
}

// metrics is the engine's instrument set; every field works (and
// counts) even when no registry is attached, per obs's nil-Registry
// contract.
type metrics struct {
	accepted     *obs.Counter
	batches      *obs.Counter
	merges       *obs.Counter
	flushes      *obs.Counter
	drains       *obs.Counter
	workerErrors *obs.Counter
	drainSeconds *obs.Histogram

	coalesced      *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		coalesced: reg.Counter("ingest_coalesced_updates_total",
			"Updates eliminated by per-batch coalescing (repeated or net-zero elements folded before sketch work)."),
		cacheHits: reg.Counter("ingest_digest_cache_hits_total",
			"Element-digest cache hits: updates whose full hash bill was skipped."),
		cacheMisses: reg.Counter("ingest_digest_cache_misses_total",
			"Element-digest cache misses: digests computed from scratch."),
		cacheEvictions: reg.Counter("ingest_digest_cache_evictions_total",
			"Digest cache slot evictions (working set exceeding the cache, or slot collisions)."),
		accepted: reg.Counter("ingest_updates_accepted_total",
			"Stream updates accepted by the ingest engine."),
		batches: reg.Counter("ingest_batches_total",
			"Update batches broadcast to the shard workers."),
		merges: reg.Counter("ingest_merges_total",
			"Synopsis deltas merged into the engine by linearity."),
		flushes: reg.Counter("ingest_flushes_total",
			"Flush operations (drain + snapshot + reset)."),
		drains: reg.Counter("ingest_drains_total",
			"Quiescence barriers executed (Drain/Flush/Snapshot/View/Close)."),
		workerErrors: reg.Counter("ingest_worker_errors_total",
			"Asynchronous shard-worker failures (corrupted merges)."),
		drainSeconds: reg.Histogram("ingest_drain_seconds",
			"Latency of the quiescence barrier: flushing pending work and waiting for every worker.", nil),
	}
}

// Engine is the sharded ingestion pipeline for one site's synopses. It
// owns one family per observed stream and is safe for concurrent use;
// submissions from multiple goroutines serialize on a short critical
// section that only appends to the pending batch.
type Engine struct {
	cfg    core.Config
	seed   uint64
	copies int
	opts   Options

	workers []*worker
	wg      sync.WaitGroup
	met     metrics
	log     *obs.Logger

	mu sync.Mutex
	// guarded by: mu
	fams map[string]*core.Family
	// guarded by: mu
	pending []datagen.Update
	// co folds each pending batch and resolves its digests through the
	// engine's DigestCache (none when Options.DigestCache < 0).
	// guarded by: mu
	co *Coalescer
	// guarded by: mu
	accepted, merged uint64
	// guarded by: mu
	closed bool

	errOnce sync.Once
	errMu   sync.Mutex
	// guarded by: errMu
	err error
}

// New starts an engine whose synopses are built from the given stored
// coins (configuration, master seed, copy count).
func New(cfg core.Config, seed uint64, copies int, opts Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if copies < 1 {
		return nil, fmt.Errorf("ingest: need at least 1 copy, got %d", copies)
	}
	opts = opts.withDefaults(copies)
	e := &Engine{
		cfg:    cfg,
		seed:   seed,
		copies: copies,
		opts:   opts,
		met:    newMetrics(opts.Obs),
		log:    opts.Log.Named("ingest"),
		fams:   make(map[string]*core.Family),
	}
	var cache *DigestCache
	if opts.DigestCache > 0 {
		cache = NewDigestCache(opts.DigestCache, seed,
			e.met.cacheHits, e.met.cacheMisses, e.met.cacheEvictions)
	}
	e.co = NewCoalescer(cfg, seed, copies, cache)
	for i := 0; i < opts.Workers; i++ {
		w := &worker{
			lo: i * copies / opts.Workers,
			hi: (i + 1) * copies / opts.Workers,
			ch: make(chan workItem, opts.QueueLen),
			batches: opts.Obs.Counter(obs.Label("ingest_worker_batches_total", "worker", strconv.Itoa(i)),
				"Update batches applied, per shard worker."),
			applied: opts.Obs.Counter(obs.Label("ingest_worker_updates_total", "worker", strconv.Itoa(i)),
				"Updates applied to the worker's copy shard."),
		}
		e.workers = append(e.workers, w)
		e.wg.Add(1)
		go w.run(&e.wg, e.fail)
	}
	// Instantaneous views are sampled at export time; the newest engine
	// on a registry owns these series (GaugeFunc overwrites).
	opts.Obs.GaugeFunc("ingest_queue_depth_batches",
		"Work items queued across all shard workers (backpressure indicator).",
		func() float64 {
			depth := 0
			for _, w := range e.workers {
				depth += len(w.ch)
			}
			return float64(depth)
		})
	opts.Obs.GaugeFunc("ingest_streams",
		"Distinct streams with live synopses in the engine.",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(len(e.fams))
		})
	e.log.Debug("engine started", "workers", opts.Workers, "copies", copies,
		"batch_size", opts.BatchSize, "queue_len", opts.QueueLen, "digest_cache", max(opts.DigestCache, 0))
	return e, nil
}

func (e *Engine) fail(err error) {
	e.met.workerErrors.Inc()
	e.log.Error("shard worker failed", "err", err)
	e.errOnce.Do(func() {
		e.errMu.Lock()
		e.err = err
		e.errMu.Unlock()
	})
}

// Err returns the first asynchronous worker error, if any.
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// Workers returns the number of shard workers.
func (e *Engine) Workers() int { return len(e.workers) }

// resolveLocked returns the family for a stream, creating it on first
// touch.
// caller holds: mu
func (e *Engine) resolveLocked(stream string) (*core.Family, error) {
	f, ok := e.fams[stream]
	if !ok {
		var err error
		if f, err = core.NewFamily(e.cfg, e.seed, e.copies); err != nil {
			return nil, err
		}
		e.fams[stream] = f
	}
	return f, nil
}

// broadcastLocked hands one work item to every worker. Caller holds
// e.mu; the send blocks when a worker's queue is full, which is the
// backpressure that keeps an over-fast producer from buffering
// unbounded work.
func (e *Engine) broadcastLocked(it workItem) {
	for _, w := range e.workers {
		w.ch <- it
	}
}

// flushPendingLocked ships the buffered partial batch, if any. The
// batch is coalesced to net per-element deltas and resolved to
// digests, so the workers replay pure counter additions. The workers
// replay after this returns, so the batch's miss slab is detached from
// the coalescer and handed to them; cache hits are immutable already.
// caller holds: mu
func (e *Engine) flushPendingLocked() {
	if len(e.pending) == 0 {
		return
	}
	e.co.Add(e.pending)
	kept := e.co.Take()
	e.co.Resolve(kept)
	e.co.Detach()
	e.met.coalesced.Add(uint64(len(e.pending) - len(kept)))
	e.pending = e.pending[:0]
	if len(kept) > 0 {
		e.broadcastLocked(workItem{groups: e.groupLocked(kept)})
	}
	e.met.batches.Inc()
}

// groupLocked splits a resolved batch into per-family digest groups
// for copy-major replay, keeping first-touch order within each family.
// caller holds: mu
func (e *Engine) groupLocked(kept []wal.DigestUpdate) []digestGroup {
	var groups []digestGroup
	gidx := make(map[string]int, 4)
	for _, en := range kept {
		gi, ok := gidx[en.Stream]
		if !ok {
			gi = len(groups)
			gidx[en.Stream] = gi
			groups = append(groups, digestGroup{fam: e.fams[en.Stream]})
		}
		groups[gi].digs = append(groups[gi].digs, en.Digest)
		groups[gi].deltas = append(groups[gi].deltas, en.Delta)
	}
	return groups
}

// Update accepts the stream update ⟨stream, e, ±v⟩. The update is
// buffered and fanned out to the shard workers once a full batch has
// accumulated (or at the next Drain/Flush/Snapshot barrier).
func (e *Engine) Update(stream string, elem uint64, delta int64) error {
	return e.UpdateBatch([]datagen.Update{{Stream: stream, Elem: elem, Delta: delta}})
}

// UpdateBatch accepts a slice of updates in one critical section,
// creating each stream's family on first touch.
func (e *Engine) UpdateBatch(ups []datagen.Update) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("ingest: engine is closed")
	}
	for _, u := range ups {
		if _, err := e.resolveLocked(u.Stream); err != nil {
			return err
		}
		e.pending = append(e.pending, u)
		e.accepted++
		e.met.accepted.Inc()
		if len(e.pending) >= e.opts.BatchSize {
			e.flushPendingLocked()
		}
	}
	return nil
}

// Merge adds an aligned synopsis delta for a stream into the engine's
// state by linearity, sharded across the workers exactly like updates:
// worker w merges copy range [lo_w, hi_w). The delta must have been
// built from the engine's coins.
func (e *Engine) Merge(stream string, delta *core.Family) error {
	if delta == nil {
		return fmt.Errorf("ingest: nil delta for stream %q", stream)
	}
	if delta.Config() != e.cfg || delta.Seed() != e.seed || delta.Copies() != e.copies {
		return core.ErrNotAligned
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("ingest: engine is closed")
	}
	target, err := e.resolveLocked(stream)
	if err != nil {
		return err
	}
	// Ship the pending batch first so the merge lands in FIFO order
	// behind updates already accepted; then clone the delta so the
	// caller may reuse or mutate theirs.
	e.flushPendingLocked()
	e.broadcastLocked(workItem{target: target, delta: delta.Clone()})
	e.merged++
	e.met.merges.Inc()
	return nil
}

// drainLocked flushes the pending batch and waits until every worker
// has processed everything queued before it. Caller holds e.mu, which
// also blocks new submissions, so on return the synopses are quiescent
// and consistent. Worker queues are FIFO, so arming the barrier behind
// the flush is sufficient.
func (e *Engine) drainLocked() {
	start := time.Now()
	e.flushPendingLocked()
	var barrier sync.WaitGroup
	barrier.Add(len(e.workers))
	e.broadcastLocked(workItem{barrier: &barrier})
	barrier.Wait()
	e.met.drains.Inc()
	e.met.drainSeconds.ObserveSince(start)
}

// Drain blocks until every accepted update has been applied to all
// sketch copies.
func (e *Engine) Drain() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.drainLocked()
}

// Snapshot drains the pipeline and returns deep copies of all synopses.
func (e *Engine) Snapshot() map[string]*core.Family {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.drainLocked()
	}
	out := make(map[string]*core.Family, len(e.fams))
	for name, f := range e.fams {
		out[name] = f.Clone()
	}
	return out
}

// Flush drains the pipeline, then atomically snapshots all synopses
// and resets them to empty — the periodic-shipping primitive: by
// linearity, the coordinator's additive merge of successive flush
// deltas reconstructs exactly the synopsis of the full local stream.
func (e *Engine) Flush() map[string]*core.Family {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.drainLocked()
	}
	out := make(map[string]*core.Family, len(e.fams))
	for name, f := range e.fams {
		out[name] = f.Clone()
		f.Reset()
	}
	e.met.flushes.Inc()
	e.log.Debug("flushed", "streams", len(out))
	return out
}

// View drains the pipeline and calls fn with the live synopsis map
// while the engine is quiescent (submissions blocked, workers idle).
// fn must not retain the map or the families past its return.
func (e *Engine) View(fn func(map[string]*core.Family)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.drainLocked()
	}
	fn(e.fams)
}

// Streams returns the names of the streams the engine has observed.
func (e *Engine) Streams() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.fams))
	for name := range e.fams {
		out = append(out, name)
	}
	return out
}

// Accepted returns how many updates the engine has accepted.
func (e *Engine) Accepted() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.accepted
}

// Close drains outstanding work and stops the workers. Further
// submissions fail; Snapshot and Streams keep working on the final
// state. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return e.Err()
	}
	e.drainLocked()
	e.closed = true
	for _, w := range e.workers {
		close(w.ch)
	}
	e.mu.Unlock()
	e.wg.Wait()
	return e.Err()
}
