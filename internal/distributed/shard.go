package distributed

// Lock-striped coordinator state. The paper's stored-coins synopses
// are linear — per-stream state is independently mergeable, and every
// counter is a sum of per-update contributions — so nothing couples
// two different streams inside one update batch except the data
// structure holding them. This file exploits that: stream names (and
// site-accounting keys) hash onto a power-of-two array of shards, each
// with its own RWMutex, family map, and version stamp, so concurrent
// sessions writing disjoint streams never touch the same lock word.
//
// Consistency is kept by three rules, machine-checked by sketchvet's
// guardedby analyzer (and documented in DESIGN.md "Coordinator
// concurrency"):
//
//  1. Shard locks are always acquired in ascending index order, and a
//     batch holds every shard it touches for its whole append+apply
//     window — so estimates, which RLock the (ascending) shard set of
//     their referenced streams, never observe a half-applied batch.
//  2. The fence RWMutex brackets whole-state operations: every batch
//     holds it shared for its lifetime, while snapshots, catalog
//     changes, and recovery installs take it exclusively to get a
//     consistent cross-shard cut (including the WAL sequence number).
//  3. The per-shard version stamps form the cross-shard version fence:
//     every applied mutation bumps its shard's stamp under the write
//     lock, so two equal StateVersion readings bracket a quiescent
//     region — the differential tests use this to prove bit-identical
//     convergence, and watchers use the per-family stamps to skip
//     no-op rounds.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"setsketch/internal/core"
	"setsketch/internal/ingest"
)

// maxShards bounds the stripe count; beyond this, lock-array sweeps in
// snapshot/recovery paths cost more than the contention they save.
const maxShards = 256

// defaultCoordDigestCache is the default -digest-cache capacity for
// the coordinator's raw-update path (mirrors the ingest engine's
// default).
const defaultCoordDigestCache = 8192

// coordShard is one lock stripe of the coordinator's merged state.
// Each shard owns the streams (and site-accounting keys) that hash to
// it; all fields are guarded by the shard's own mu.
type coordShard struct {
	mu sync.RWMutex
	// fams holds the merged per-stream synopses owned by this stripe.
	// guarded by: mu
	// wal: state
	fams map[string]*core.Family
	// sites counts mutations (raw batches and deltas) accepted per
	// site, for diagnostics; site
	// names hash into the same stripe space as stream names.
	// guarded by: mu
	// wal: state
	sites map[string]int
	// version counts mutations applied to this stripe — one lane of
	// the cross-shard version fence (see StateVersion).
	// guarded by: mu
	version uint64

	// Pad each shard out to its own cache-line neighborhood: the
	// shards live in one contiguous slice, and without padding one
	// stripe's lock word and version counter would false-share with
	// its neighbors', serializing exactly the sessions the stripes
	// exist to decouple.
	_ [80]byte
}

// defaultShardCount picks the stripe count when -shards is not given:
// the next power of two covering GOMAXPROCS, clamped to [1, 64] — one
// stripe per runnable CPU is where the contention win flattens out.
func defaultShardCount() int {
	n := ceilPow2(runtime.GOMAXPROCS(0))
	if n > 64 {
		n = 64
	}
	if n < 1 {
		n = 1
	}
	return n
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIndex routes a stream or site name to its owning stripe with
// FNV-1a — stable across processes, so replaying one host's WAL into a
// coordinator with any other shard count lands every stream in a
// well-defined (if different) stripe and rebuilds identical synopses.
func (c *Coordinator) shardIndex(name string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int(h & c.shardMask)
}

// shardFor returns the stripe owning a stream or site name.
func (c *Coordinator) shardFor(name string) *coordShard {
	return &c.shards[c.shardIndex(name)]
}

// initShards (re)builds the stripe array and the empty copy-on-write
// read map. Only called while the coordinator holds no state; the
// per-stripe locks are uncontended but taken anyway to satisfy the
// guardedby contract on fams/sites.
func (c *Coordinator) initShards(n int) {
	c.shards = make([]coordShard, n)
	c.shardMask = uint64(n - 1)
	for i := range c.shards {
		c.shards[i].mu.Lock()
		c.shards[i].fams = make(map[string]*core.Family)
		c.shards[i].sites = make(map[string]int)
		c.shards[i].mu.Unlock()
	}
	empty := make(map[string]*core.Family)
	c.read.Store(&empty)
}

// SetShards repartitions the coordinator into n lock-striped shards,
// rounded up to a power of two and clamped to [1, 256]; n <= 0 selects
// the GOMAXPROCS-derived default. Call it before Recover and before
// the coordinator serves traffic, like SetObservability — resharding
// does not migrate state, so it refuses to run once any stream, update
// credit, or watcher exists. n = 1 keeps the single-stripe layout,
// bit-identical in behavior to the pre-sharding coordinator.
//
//sketchvet:wal-exempt pre-traffic setup: repartitions empty shards, mutates no recovered state
func (c *Coordinator) SetShards(n int) error {
	if n <= 0 {
		n = defaultShardCount()
	}
	if n > maxShards {
		n = maxShards
	}
	n = ceilPow2(n)
	if c.updates.Load() != 0 || len(*c.read.Load()) != 0 || c.Watchers() != 0 {
		return fmt.Errorf("distributed: SetShards must run before the coordinator holds state")
	}
	c.cmu.Lock()
	clear(c.compileCache) // cached lock sets are per-layout
	c.cmu.Unlock()
	c.initShards(n)
	return nil
}

// Shards reports the configured stripe count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// SetDigestCache arms the coordinator-side digest cache on the raw
// update path with at least n entries (rounded up to a power of two);
// n == 0 selects the default 8192, n < 0 disables the cache. On the
// skewed central workloads the paper evaluates, the heavy hitters
// dominating the update volume then replay cached digests instead of
// re-hashing every batch (coord_digest_cache_hits_total). Call it
// after SetObservability — the cache binds the coord_digest_cache_*
// counters at creation — and before the coordinator serves traffic:
// every Applier binds the cache when it is created.
//
//sketchvet:wal-exempt pre-traffic setup: wires a derived cache, mutates no recovered state
func (c *Coordinator) SetDigestCache(n int) {
	if n == 0 {
		n = defaultCoordDigestCache
	}
	if n < 0 {
		c.dcache = nil
		return
	}
	c.dcache = ingest.NewDigestCache(n, c.coins.Seed,
		c.met.digestCacheHits, c.met.digestCacheMisses, c.met.digestCacheEvictions)
}

// lockShards write-locks the given stripe indexes, which must be
// sorted ascending and duplicate-free — the global shard lock order
// that keeps multi-shard batches deadlock-free against each other and
// against the estimate path's shared acquisitions.
func (c *Coordinator) lockShards(order []int) {
	for _, i := range order {
		c.shards[i].mu.Lock()
	}
}

func (c *Coordinator) unlockShards(order []int) {
	for _, i := range order {
		c.shards[i].mu.Unlock()
	}
}

// lockAllShards write-locks every stripe in ascending order. Recovery
// replay and state installs use it; the live batch path locks only the
// stripes it touches.
func (c *Coordinator) lockAllShards() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
}

func (c *Coordinator) unlockAllShards() {
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// shardLockSet maps stream names to the ascending, deduplicated list
// of stripe indexes owning them — the estimate path's lock set,
// computed once per compiled expression.
func (c *Coordinator) shardLockSet(streams []string) []int {
	seen := make([]bool, len(c.shards))
	out := make([]int, 0, len(streams))
	for _, s := range streams {
		si := c.shardIndex(s)
		if !seen[si] {
			seen[si] = true
			out = append(out, si)
		}
	}
	slices.Sort(out)
	return out
}

// publishStream adds one newly created stream family to the
// copy-on-write read map. The estimate path loads the map pointer with
// no lock at all: published maps are immutable, and a reader holding
// the stream's shard RLock is ordered after the writer's unlock, so it
// always loads a map containing the stream.
// caller holds: mu
func (c *Coordinator) publishStream(stream string, f *core.Family) {
	c.rmu.Lock()
	old := *c.read.Load()
	m := make(map[string]*core.Family, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[stream] = f
	c.read.Store(&m)
	c.rmu.Unlock()
}

// famLocked returns the merged synopsis for a stream, creating an
// empty one (and publishing it to the read map) on first reference.
// The stream must route to sh.
// caller holds: mu
func (c *Coordinator) famLocked(sh *coordShard, stream string) *core.Family {
	f, ok := sh.fams[stream]
	if !ok {
		f, _ = c.coins.NewFamily() // coins validated at construction
		sh.fams[stream] = f
		c.publishStream(stream, f)
	}
	return f
}

// StateVersion sums every stripe's version stamp — the cross-shard
// version fence. A mutation bumps its stripe's stamp under the write
// lock before releasing it, so two equal readings bracket a region in
// which no batch committed; the differential tests use this to prove
// sharded and unsharded coordinators converged to identical state.
func (c *Coordinator) StateVersion() uint64 {
	var v uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		v += sh.version
		sh.mu.RUnlock()
	}
	return v
}
