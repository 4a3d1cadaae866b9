package distributed

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/cq"
	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/ingest"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

// Coordinator is the central site of Fig. 1: it accumulates what stream
// sites ship through their sessions — raw update batches it sketches
// itself, and synopsis deltas it merges by sketch linearity — and
// answers set-expression cardinality queries over the merged
// collection. It also hosts the standing continuous queries of
// watch.go, re-evaluated as updates accumulate.
// A Coordinator is safe for concurrent use; per-stream state is
// partitioned into lock-striped shards (shard.go) so sessions writing
// disjoint streams proceed in parallel.
type Coordinator struct {
	coins Coins

	met coordMetrics
	log *obs.Logger

	// wlog, when set via AttachWAL, makes every accepted mutation
	// durable before it is applied (durability.go). Set before the
	// coordinator serves traffic; nil means durability is off.
	wlog *wal.Log

	// fence is the cross-shard consistency fence. Every mutation batch
	// holds it shared for its whole append+apply window (writers stay
	// concurrent with each other); whole-state operations — snapshots,
	// view-catalog changes, recovery installs — take it exclusively,
	// so they see no batch half-done anywhere and a WAL sequence
	// number consistent with every shard. Lock order: fence, then
	// shard mu (ascending), then vmu, then the WAL's internal lock.
	fence sync.RWMutex

	// shards stripe the merged per-stream state (fams, site accounting,
	// version stamps); see shard.go for the locking rules.
	shards    []coordShard
	shardMask uint64

	// read is the copy-on-write union of every shard's family map.
	// Published maps are immutable; a new map is built (under rmu, and
	// the creating stream's shard write lock) only when a stream first
	// appears, so the estimate path reads the whole collection with
	// one atomic load and zero allocations.
	read atomic.Pointer[map[string]*core.Family]
	rmu  sync.Mutex // serializes copy-on-write rebuilds of read

	// updates counts stream updates credited so far (watch triggers).
	// wal: state
	updates atomic.Uint64

	// vmu guards the continuous-view engine, which holds the view
	// catalog and the ring state of windowed views (views.go). Batch
	// writers take it — inside their shard critical section, around
	// the WAL append — only when windowed views exist, so the rings
	// observe mutations in log order; evaluation takes it shared.
	// All-time views hold no state: they read the shards' families.
	vmu sync.RWMutex
	// guarded by: vmu
	// wal: state
	cqe *cq.Engine
	// catalog counts view-catalog changes, so watch rounds re-evaluate
	// after a view they follow is dropped or re-created.
	// guarded by: vmu
	catalog uint64
	// hasWindows mirrors "the catalog holds a windowed view". It flips
	// only while the catalog change holds the fence exclusively, so a
	// batch (fence shared) can skip the whole view path with one load.
	hasWindows atomic.Bool

	// dcache is the optional digest cache shared by every session's
	// coalescer and by recovery's (SetDigestCache); it locks itself.
	// nil = cache off.
	dcache *ingest.DigestCache

	// apool backs the one-off Coordinator.ApplyUpdates entry point;
	// streaming sessions hold their own Applier instead (stream.go).
	apool sync.Pool

	// cmu guards the ad-hoc query compile cache: Estimate(string) hits
	// it so repeated queries skip parse + compile. Watchers bypass it —
	// they hold their compiled queries from registration.
	cmu sync.Mutex
	// guarded by: cmu
	compileCache map[string]compiledExpr

	wmu sync.Mutex // guards the watcher registry; never taken under w.mu
	// guarded by: wmu
	watchers map[int]*Watcher
	// guarded by: wmu
	nextID int
}

// compiledExpr is one parse+compile result: the source text and its
// compiled kernel query.
type compiledExpr struct {
	src string
	q   *core.Query
	// locks is the ascending, deduplicated list of shard indexes
	// owning the expression's referenced streams: the estimate path
	// RLocks exactly these, so reads are consistent against
	// multi-shard batches without touching unrelated stripes.
	locks []int
}

// compileCacheMax bounds the ad-hoc compile cache. Eviction is an
// arbitrary map entry — standing queries belong in watchers, which hold
// their programs directly, so the cache only needs to absorb ad-hoc
// query churn, not preserve recency.
const compileCacheMax = 1024

// coordMetrics is the coordinator's instrument set; per obs's contract
// every instrument works (uncollected) when no registry is attached.
type coordMetrics struct {
	deltasMerged         *obs.Counter
	rawBatches           *obs.Counter
	rawUpdates           *obs.Counter
	estimates            *obs.Counter
	estimateErrors       *obs.Counter
	estimateSecs         *obs.Histogram
	compileHits          *obs.Counter
	compileMisses        *obs.Counter
	digestCacheHits      *obs.Counter
	digestCacheMisses    *obs.Counter
	digestCacheEvictions *obs.Counter
	watchRounds          *obs.Counter
	watchEvals           *obs.Counter
	watchSkipped         *obs.Counter
	watchDelivered       *obs.Counter
	watchDropped         *obs.Counter
	watchSlowDrops       *obs.Counter
	cqViewRounds         *obs.Counter
	cqViewResults        *obs.Counter
	cqViewErrors         *obs.Counter
}

func newCoordMetrics(reg *obs.Registry) coordMetrics {
	return coordMetrics{
		deltasMerged: reg.Counter("coord_deltas_merged_total",
			"Synopsis deltas merged by linearity."),
		rawBatches: reg.Counter("coord_raw_update_batches_total",
			"Raw update batches sketched centrally (forward-mode sessions)."),
		rawUpdates: reg.Counter("coord_raw_updates_total",
			"Raw stream updates sketched centrally."),
		estimates: reg.Counter("coord_estimates_total",
			"Set-expression cardinality estimates computed."),
		estimateErrors: reg.Counter("coord_estimate_errors_total",
			"Estimates that failed (parse error, missing stream, no valid observations)."),
		estimateSecs: reg.Histogram("estimate_latency_seconds",
			"Set-expression estimate latency through the compiled query kernel (ad-hoc and watch rounds).", nil),
		compileHits: reg.Counter("coord_compile_cache_hits_total",
			"Ad-hoc estimate expressions served from the parse+compile cache."),
		compileMisses: reg.Counter("coord_compile_cache_misses_total",
			"Ad-hoc estimate expressions parsed and compiled fresh."),
		digestCacheHits: reg.Counter("coord_digest_cache_hits_total",
			"Raw-update digests served from the coordinator digest cache (hash bill skipped)."),
		digestCacheMisses: reg.Counter("coord_digest_cache_misses_total",
			"Coordinator digest-cache lookups that missed and were batch-computed on session scratch."),
		digestCacheEvictions: reg.Counter("coord_digest_cache_evictions_total",
			"Coordinator digest-cache slots overwritten by a colliding element (direct-mapped eviction)."),
		watchRounds: reg.Counter("watch_rounds_total",
			"Continuous-query evaluation rounds fired (update-count, interval, and Tick rounds)."),
		watchEvals: reg.Counter("watch_evaluations_total",
			"Individual watch-expression evaluations (rounds x expressions)."),
		watchSkipped: reg.Counter("watch_rounds_skipped_total",
			"Watch rounds skipped because no referenced family's version changed since the watcher's last evaluation."),
		watchDelivered: reg.Counter("watch_results_delivered_total",
			"Watch results enqueued to watcher channels."),
		watchDropped: reg.Counter("watch_results_dropped_total",
			"Watch results lost to full bounded watcher queues."),
		watchSlowDrops: reg.Counter("watch_slow_consumer_drops_total",
			"Watchers unregistered after exceeding MaxDrops consecutive losses."),
		cqViewRounds: reg.Counter("cq_view_rounds_total",
			"Continuous-view evaluation rounds run (one per watched view per fired round)."),
		cqViewResults: reg.Counter("cq_view_results_total",
			"Per-group continuous-view results delivered to watchers (after ISTREAM filtering)."),
		cqViewErrors: reg.Counter("cq_view_errors_total",
			"Continuous-view evaluations that failed (unknown view or per-group estimate error)."),
	}
}

// SetObservability attaches a metrics registry and logger to the
// coordinator, exporting the coord_*, watch_*, and estimator_* series
// documented in OPERATIONS.md. Call it once, before the coordinator
// serves traffic (and before SetDigestCache, which binds the cache
// counters at creation); either argument may be nil.
//
//sketchvet:wal-exempt pre-traffic setup: wires instruments, mutates no recovered state
func (c *Coordinator) SetObservability(reg *obs.Registry, log *obs.Logger) {
	c.met = newCoordMetrics(reg)
	c.log = log.Named("coord")
	c.vmu.Lock()
	c.cqe.SetObservability(reg, log)
	c.vmu.Unlock()
	reg.GaugeFunc("cq_views",
		"Continuous views registered in the catalog.",
		func() float64 {
			c.vmu.RLock()
			defer c.vmu.RUnlock()
			v, _, _ := c.cqe.Counts()
			return float64(v)
		})
	reg.GaugeFunc("cq_window_buckets",
		"Live (non-empty) window-ring buckets across all windowed views and their groups.",
		func() float64 {
			c.vmu.RLock()
			defer c.vmu.RUnlock()
			_, b, _ := c.cqe.Counts()
			return float64(b)
		})
	reg.GaugeFunc("cq_groups",
		"Live keyed groups across all windowed grouped views (bounded by -cq-max-groups per view).",
		func() float64 {
			c.vmu.RLock()
			defer c.vmu.RUnlock()
			_, _, g := c.cqe.Counts()
			return float64(g)
		})
	reg.CounterFunc("coord_updates_credited_total",
		"Stream updates credited toward watch triggers (raw updates individually; deltas by reported counts).",
		c.Updates)
	reg.GaugeFunc("coord_streams",
		"Distinct streams with merged synopses.",
		func() float64 { return float64(len(*c.read.Load())) })
	reg.GaugeFunc("coord_shards",
		"Lock-striped state shards the coordinator is partitioned into (-shards).",
		func() float64 { return float64(len(c.shards)) })
	reg.GaugeFunc("watch_active",
		"Standing continuous queries currently registered.",
		func() float64 { return float64(c.Watchers()) })
	reg.GaugeFunc("watch_queue_occupancy",
		"Buffered results across all watcher queues (bounded; drops when full).",
		func() float64 {
			c.wmu.Lock()
			defer c.wmu.Unlock()
			n := 0
			for _, w := range c.watchers {
				n += len(w.ch)
			}
			return float64(n)
		})
	// The estimator quality counters live in core (the estimate path has
	// no coordinator handle); export them here so singleton-bucket hit
	// rate and witness yield ride along with the coordinator's series.
	for name, help := range map[string]string{
		"estimator_estimates_total":            "Witness-estimator invocations (expression/difference/intersection).",
		"estimator_no_observations_total":      "Estimates that found no valid witness observation (ErrNoObservations).",
		"estimator_singleton_checks_total":     "(copy, level) union-bucket singleton probes.",
		"estimator_singleton_hits_total":       "Probes that found a singleton union bucket (valid observations r').",
		"estimator_witnesses_total":            "Valid observations that witnessed the estimated expression.",
		"estimator_union_estimates_total":      "Union-estimator invocations, including internal u-hat sub-estimates.",
		"estimator_union_level_scans_total":    "First-level bucket indices scanned by union estimators.",
		"estimator_view_builds_total":          "Query views built in full (a family's first read, windowed-view evaluations).",
		"estimator_view_patches_total":         "Query views refreshed by recomputing only the buckets written since the last view.",
		"estimator_view_buckets_rebuilt_total": "(copy, bucket) pairs recomputed by query-view builds and patches.",
	} {
		name := name
		reg.CounterFunc(name, help, func() uint64 { return core.Stats.Snapshot()[name] })
	}
}

// NewCoordinator creates a coordinator expecting synopses built from
// the given coins, partitioned into the GOMAXPROCS-derived default
// shard count (override with SetShards before serving traffic).
//
//sketchvet:wal-exempt construction: builds empty shards, nothing to log yet
func NewCoordinator(coins Coins) (*Coordinator, error) {
	if err := coins.Validate(); err != nil {
		return nil, err
	}
	cqe, err := cq.NewEngine(cq.Options{NewFamily: coins.NewFamily})
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		coins:        coins,
		met:          newCoordMetrics(nil), // unregistered instruments until SetObservability
		cqe:          cqe,
		compileCache: make(map[string]compiledExpr),
		watchers:     make(map[int]*Watcher),
	}
	c.initShards(defaultShardCount())
	c.apool.New = func() any { return c.NewApplier() }
	return c, nil
}

// SetEstimateOptions is a no-op kept for source compatibility:
// core.EstimateOptions has no fields left, and every estimate scans
// serially on the calling goroutine.
func (c *Coordinator) SetEstimateOptions(core.EstimateOptions) {}

// Coins returns the coordinator's expected coins.
func (c *Coordinator) Coins() Coins { return c.coins }

// ApplyDelta merges a site's synopsis delta for one stream into the
// coordinator's state and credits count stream updates toward the
// continuous-query triggers. Contributions to the same stream from
// different sites, or from successive flushes of one site, add up to
// the synopsis of the full stream (linearity); synopses built with the
// wrong coins are rejected with core.ErrNotAligned. Streaming sites
// report how many local updates each flushed delta summarizes, so
// update-count watch thresholds fire accurately in delta mode.
//
//sketchvet:wal-handler
func (c *Coordinator) ApplyDelta(site, stream string, fam *core.Family, count uint64) error {
	if fam == nil {
		return fmt.Errorf("distributed: nil synopsis from site %q", site)
	}
	if fam.Config() != c.coins.Config || fam.Seed() != c.coins.Seed || fam.Copies() != c.coins.Copies {
		return core.ErrNotAligned
	}
	rec, err := c.deltaRecord(site, stream, fam, count) // nil when durability is off
	if err != nil {
		return err
	}
	lo := c.shardIndex(stream)
	hi := c.shardIndex(site)
	if lo > hi {
		lo, hi = hi, lo
	}
	c.fence.RLock()
	c.shards[lo].mu.Lock()
	if hi != lo {
		c.shards[hi].mu.Lock()
	}
	total, err := c.applyDeltaShards(rec, site, stream, fam, count)
	if hi != lo {
		c.shards[hi].mu.Unlock()
	}
	c.shards[lo].mu.Unlock()
	c.fence.RUnlock()
	if err != nil {
		return err // not logged or not applied: not acked
	}
	c.met.deltasMerged.Inc()
	c.evalDue(total)
	return nil
}

// applyDeltaShards logs and applies one synopsis delta under the
// stream's (and site stripe's) write locks: append-before-apply, with
// the windowed views' rings fed in log order when any exist.
// caller holds: mu
func (c *Coordinator) applyDeltaShards(rec *wal.Record, site, stream string, fam *core.Family, count uint64) (uint64, error) {
	if c.hasWindows.Load() {
		c.vmu.Lock()
		err := c.logRecord(rec)
		if err == nil {
			err = c.cqe.MergeDelta(stream, fam)
		}
		c.vmu.Unlock()
		if err != nil {
			return 0, err
		}
	} else if err := c.logRecord(rec); err != nil {
		return 0, err
	}
	if err := c.mergeDeltaLocked(stream, fam); err != nil {
		return 0, err
	}
	return c.creditLocked(site, count), nil
}

// mergeDeltaLocked merges one delta synopsis into its stream's merged
// family, bumping the stripe's version stamp.
// caller holds: mu
func (c *Coordinator) mergeDeltaLocked(stream string, fam *core.Family) error {
	sh := c.shardFor(stream)
	if err := c.famLocked(sh, stream).Merge(fam); err != nil {
		return err
	}
	sh.version++
	return nil
}

// ApplyUpdates applies raw stream updates directly to the coordinator's
// synopses. One-off entry point that borrows a pooled Applier;
// streaming sessions hold their own (NewApplier) so batches on
// different connections never share digest scratch.
func (c *Coordinator) ApplyUpdates(site string, ups []datagen.Update) error {
	a := c.apool.Get().(*Applier)
	err := a.ApplyUpdates(site, ups)
	c.apool.Put(a)
	return err
}

// Updates returns how many stream updates have been credited so far
// (raw updates individually; deltas by their reported counts).
func (c *Coordinator) Updates() uint64 {
	return c.updates.Load()
}

// Streams returns the names of all streams with merged synopses, sorted.
func (c *Coordinator) Streams() []string {
	fams := *c.read.Load()
	out := make([]string, 0, len(fams))
	for name := range fams {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Pushes returns, per site, how many mutations the coordinator has
// accepted from it: one per raw update batch and one per synopsis
// delta.
func (c *Coordinator) Pushes() map[string]int {
	out := make(map[string]int)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, v := range sh.sites {
			out[k] += v
		}
		sh.mu.RUnlock()
	}
	return out
}

// Estimate answers an ad-hoc set-expression cardinality query over the
// merged synopses (the paper's "Set-Expression Cardinality Query
// Processor"). The expression string is parsed and compiled at most
// once per process (bounded cache); standing queries should use Watch,
// which compiles at registration and never touches the cache.
func (c *Coordinator) Estimate(expression string, eps float64) (core.Estimate, error) {
	ce, err := c.compiled(expression)
	if err != nil {
		c.met.estimates.Inc()
		c.met.estimateErrors.Inc()
		return core.Estimate{}, err
	}
	return c.estimateCompiled(ce, eps)
}

// compiled returns the parse+compile result for an ad-hoc expression,
// consulting the bounded cache.
func (c *Coordinator) compiled(expression string) (compiledExpr, error) {
	c.cmu.Lock()
	ce, ok := c.compileCache[expression]
	c.cmu.Unlock()
	if ok {
		c.met.compileHits.Inc()
		return ce, nil
	}
	c.met.compileMisses.Inc()
	node, err := expr.Parse(expression)
	if err != nil {
		return compiledExpr{}, err
	}
	if ce, err = c.compile(expression, node); err != nil {
		return compiledExpr{}, err
	}
	c.cmu.Lock()
	if len(c.compileCache) >= compileCacheMax {
		for k := range c.compileCache {
			delete(c.compileCache, k)
			break
		}
	}
	c.compileCache[expression] = ce
	c.cmu.Unlock()
	return ce, nil
}

// compile compiles a parsed expression and resolves the shard locks
// its estimates take.
func (c *Coordinator) compile(src string, node expr.Node) (compiledExpr, error) {
	q, err := core.CompileQuery(node)
	if err != nil {
		return compiledExpr{}, err
	}
	return compiledExpr{src: src, q: q, locks: c.shardLockSet(expr.Streams(node))}, nil
}

// estimateCompiled runs one estimate through the query kernel,
// recording latency and error metrics. Shared by ad-hoc queries and
// watch rounds. It RLocks only the shards owning the expression's
// referenced streams, in ascending order: batch writers hold all their
// destination shards for the whole append+apply window, so the reader
// either sees a batch entirely or not at all — the same consistency
// the old single state lock gave, without stalling writers on
// unrelated stripes.
func (c *Coordinator) estimateCompiled(ce compiledExpr, eps float64) (core.Estimate, error) {
	c.met.estimates.Inc()
	start := time.Now()
	for _, si := range ce.locks {
		c.shards[si].mu.RLock()
	}
	est, err := ce.q.Estimate(*c.read.Load(), eps, true, core.EstimateOptions{})
	for _, si := range ce.locks {
		c.shards[si].mu.RUnlock()
	}
	c.met.estimateSecs.ObserveSince(start)
	if err != nil {
		c.met.estimateErrors.Inc()
		c.log.Debug("estimate failed", "expr", ce.src, "err", err)
	}
	return est, err
}

// streamVersions fills out[i] with a change stamp for names[i]: 0 when
// the stream has no merged synopsis yet, otherwise the family's
// mutation version offset by 1 (so appearance itself is a change).
// Watchers compare stamps between rounds to skip no-op re-evaluations.
func (c *Coordinator) streamVersions(names []string, out []uint64) {
	for i, name := range names {
		sh := c.shardFor(name)
		sh.mu.RLock()
		if f, ok := sh.fams[name]; ok {
			out[i] = f.Version() + 1
		} else {
			out[i] = 0
		}
		sh.mu.RUnlock()
	}
}

// Family returns a deep copy of the merged synopsis for a stream, or
// nil if unknown.
func (c *Coordinator) Family(stream string) *core.Family {
	sh := c.shardFor(stream)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if f, ok := sh.fams[stream]; ok {
		return f.Clone()
	}
	return nil
}
