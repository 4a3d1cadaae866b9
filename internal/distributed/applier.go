package distributed

// The per-session apply path for raw update batches. Each streaming
// session owns one Applier, so the digest scratch family and the
// coalesce buffers that used to sit behind the coordinator-wide smu
// mutex are private to the connection — two sessions hashing batches
// concurrently never serialize on scratch, even in -shards 1 mode.
// The only cross-session structure on the digest path is the optional
// coordinator digest cache (SetDigestCache), probed and refilled in
// two short critical sections per batch.

import (
	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/wal"
)

// digKey identifies an update target within one batch.
type digKey struct {
	stream string
	elem   uint64
}

// Applier applies raw update batches for one session. It owns the
// digest-evaluation scratch family and the coalesce/routing buffers
// its ApplyUpdates reuses batch to batch, making the warm cached-digest
// path allocation-free. An Applier is not safe for concurrent use;
// each session (or goroutine) holds its own, and all Appliers of one
// coordinator share its state, WAL, and digest cache.
type Applier struct {
	c *Coordinator

	scratch  *core.Family // digest-evaluation family, built on first miss
	idx      map[digKey]int
	entries  []wal.DigestUpdate
	elems    []uint64 // cache-miss elements, aligned with missIdx
	missIdx  []int
	missDigs []core.Digest // r-word views into one session-owned slab
	marks    []bool        // per-shard touched flags, reset after each batch
	order    []int         // ascending touched-shard indexes
}

// NewApplier returns a fresh per-session applier. Sessions call this
// once at hello; one-off callers can use Coordinator.ApplyUpdates,
// which borrows from an internal pool.
func (c *Coordinator) NewApplier() *Applier {
	return &Applier{
		c:     c,
		idx:   make(map[digKey]int, 64),
		marks: make([]bool, len(c.shards)),
	}
}

// ApplyUpdates applies raw stream updates directly to the
// coordinator's synopses — the server side of a msgUpdateBatch
// streaming session, where thin clients forward updates for the
// coordinator to sketch centrally instead of sketching locally and
// shipping deltas. The hash bill is paid outside every lock (served
// from the coordinator digest cache when armed), the WAL append and
// the counter application happen under the destination shards' write
// locks (append-before-apply, log order is apply order per stream),
// and sessions writing disjoint shards proceed in parallel.
//
//sketchvet:wal-handler
func (a *Applier) ApplyUpdates(site string, ups []datagen.Update) error {
	if len(ups) == 0 {
		return nil
	}
	c := a.c
	packable := c.coins.Config.DigestPackable()
	var entries []wal.DigestUpdate
	if packable {
		entries = a.digests(ups)
	}
	var rec *wal.Record
	if c.wlog != nil {
		rec = c.wlog.BuildUpdates(site, ups)
	}
	a.markShards(site, entries, ups, packable)
	c.fence.RLock()
	c.lockShards(a.order)
	total, err := c.applyBatchShards(rec, site, ups, entries, packable)
	c.unlockShards(a.order)
	c.fence.RUnlock()
	a.resetMarks()
	if err != nil {
		return err // not logged or not applied: not acked
	}
	c.met.rawBatches.Inc()
	c.met.rawUpdates.Add(uint64(len(ups)))
	c.evalDue(total)
	return nil
}

// digests coalesces one raw batch down to one net update per (stream,
// element), drops exact cancellations (linearity: a net-zero update is
// a no-op on every counter), and resolves each survivor's packed
// digest. The returned entries alias the applier's reusable buffers
// and are valid until the next call. Mirrors wal.DigestUpdates with
// session-owned buffers, so the warm full-hit path allocates nothing,
// and neither does a miss once the slab has grown to the session's
// largest batch.
func (a *Applier) digests(ups []datagen.Update) []wal.DigestUpdate {
	clear(a.idx)
	entries := a.entries[:0]
	for _, u := range ups {
		k := digKey{u.Stream, u.Elem}
		if i, ok := a.idx[k]; ok {
			entries[i].Delta += u.Delta
			continue
		}
		a.idx[k] = len(entries)
		entries = append(entries, wal.DigestUpdate{Stream: u.Stream, Elem: u.Elem, Delta: u.Delta})
	}
	a.entries = entries
	kept := entries[:0]
	for i := range entries {
		if entries[i].Delta != 0 {
			kept = append(kept, entries[i])
		}
	}
	a.resolve(kept)
	return kept
}

// resolve fills in every entry's digest — from the coordinator's
// shared cache when armed, batch-computing only the misses on the
// session's own scratch family — and returns how many it hashed.
// Hits are the cache's immutable copies; misses are computed into the
// session's miss slab and stay valid until the next call, and the
// cache copies from it on Install and so never retains it.
func (a *Applier) resolve(entries []wal.DigestUpdate) int {
	c := a.c
	a.elems = a.elems[:0]
	a.missIdx = a.missIdx[:0]
	if c.dcache != nil {
		c.dmu.Lock()
		for i := range entries {
			if d, ok := c.dcache.Lookup(entries[i].Elem); ok {
				entries[i].Digest = d
			} else {
				a.elems = append(a.elems, entries[i].Elem)
				a.missIdx = append(a.missIdx, i)
			}
		}
		c.dmu.Unlock()
	} else {
		for i := range entries {
			a.elems = append(a.elems, entries[i].Elem)
			a.missIdx = append(a.missIdx, i)
		}
	}
	if len(a.elems) > 0 {
		if a.scratch == nil {
			a.scratch, _ = c.coins.NewFamily() // coins validated at construction
		}
		md := a.missDigests(len(a.elems))
		a.scratch.DigestBatchInto(md, a.elems)
		for j, i := range a.missIdx {
			entries[i].Digest = md[j]
		}
		if c.dcache != nil {
			c.dmu.Lock()
			for j, i := range a.missIdx {
				c.dcache.Install(entries[i].Elem, md[j])
			}
			c.dmu.Unlock()
		}
	}
	return len(a.elems)
}

// missDigests returns n r-word digest buffers backed by the session's
// miss slab, growing it when a batch has more misses than any before.
func (a *Applier) missDigests(n int) []core.Digest {
	if len(a.missDigs) < n {
		r := a.c.coins.Copies
		slab := make([]uint64, n*r)
		a.missDigs = make([]core.Digest, n)
		for k := range a.missDigs {
			a.missDigs[k] = core.Digest(slab[k*r : (k+1)*r : (k+1)*r])
		}
	}
	return a.missDigs[:n]
}

// markShards computes the ascending set of stripes this batch touches
// (destination streams plus the site-accounting stripe) into a.order.
func (a *Applier) markShards(site string, entries []wal.DigestUpdate, ups []datagen.Update, packable bool) {
	c := a.c
	if len(a.marks) != len(c.shards) {
		a.marks = make([]bool, len(c.shards)) // SetShards ran after NewApplier
	}
	a.order = a.order[:0]
	if packable {
		for i := range entries {
			si := c.shardIndex(entries[i].Stream)
			if !a.marks[si] {
				a.marks[si] = true
				a.order = append(a.order, si)
			}
		}
	} else {
		for i := range ups {
			si := c.shardIndex(ups[i].Stream)
			if !a.marks[si] {
				a.marks[si] = true
				a.order = append(a.order, si)
			}
		}
	}
	if si := c.shardIndex(site); !a.marks[si] {
		a.marks[si] = true
		a.order = append(a.order, si)
	}
	insertionSort(a.order)
}

func (a *Applier) resetMarks() {
	for _, i := range a.order {
		a.marks[i] = false
	}
}

// insertionSort sorts the (short: at most maxShards) lock order in
// place without the interface allocations of the sort package.
func insertionSort(x []int) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// applyBatchShards logs and applies one raw update batch. The WAL
// append happens first (append-before-apply: an acked batch is always
// recoverable), inside the shard critical section so per-stream log
// order equals apply order, and under vmu when continuous views exist
// so the view engine observes records in log order too.
// caller holds: mu
func (c *Coordinator) applyBatchShards(rec *wal.Record, site string, ups []datagen.Update, entries []wal.DigestUpdate, packable bool) (uint64, error) {
	if c.hasViews.Load() {
		c.vmu.Lock()
		err := c.logRecord(rec)
		if err == nil {
			if packable {
				err = c.observeDigestsLocked(entries)
			} else {
				err = c.observeRawLocked(ups)
			}
		}
		c.vmu.Unlock()
		if err != nil {
			return 0, err
		}
	} else if err := c.logRecord(rec); err != nil {
		return 0, err
	}
	if packable {
		if err := c.applyDigestsLocked(entries); err != nil {
			return 0, err
		}
	} else {
		c.applyRawLocked(ups)
	}
	return c.creditLocked(site, uint64(len(ups))), nil
}

// applyDigestsLocked adds coalesced digest entries to their streams'
// merged synopses — pure counter adds; the hash bill was paid (or
// cached) when the digests were built. By linearity this is exactly
// equivalent to applying the original updates in order.
// caller holds: mu
func (c *Coordinator) applyDigestsLocked(entries []wal.DigestUpdate) error {
	for i := range entries {
		d := &entries[i]
		if len(d.Digest) != c.coins.Copies {
			return errDigestWidth(len(d.Digest), c.coins.Copies)
		}
		sh := c.shardFor(d.Stream)
		c.famLocked(sh, d.Stream).UpdateDigest(d.Digest, d.Delta)
		sh.version++
	}
	return nil
}

// applyRawLocked applies raw updates one by one — the digest-unpackable
// fallback path.
// caller holds: mu
func (c *Coordinator) applyRawLocked(ups []datagen.Update) {
	for _, u := range ups {
		sh := c.shardFor(u.Stream)
		c.famLocked(sh, u.Stream).Update(u.Elem, u.Delta)
		sh.version++
	}
}

// observeDigestsLocked feeds digest entries to the continuous-view
// engine. Digests depend only on the stored coins, so the same words
// apply unchanged to view bucket families.
// caller holds: vmu
func (c *Coordinator) observeDigestsLocked(entries []wal.DigestUpdate) error {
	for i := range entries {
		d := &entries[i]
		if err := c.cqe.ObserveDigest(d.Stream, d.Digest, d.Delta); err != nil {
			return err
		}
	}
	return nil
}

// observeRawLocked feeds raw updates to the continuous-view engine.
// caller holds: vmu
func (c *Coordinator) observeRawLocked(ups []datagen.Update) error {
	for _, u := range ups {
		if err := c.cqe.Observe(u.Stream, u.Elem, u.Delta); err != nil {
			return err
		}
	}
	return nil
}

// creditLocked records one accepted mutation's site and update-count
// accounting and returns the new credited total (watch triggers).
// caller holds: mu
func (c *Coordinator) creditLocked(site string, count uint64) uint64 {
	sh := c.shardFor(site)
	sh.sites[site]++
	sh.version++
	return c.updates.Add(count)
}
