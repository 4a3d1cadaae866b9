package distributed

// The per-session apply path for raw update batches. Each streaming
// session owns one Applier, so its coalescer — fold buffers, digest
// scratch family and miss slab — is private to the connection: two
// sessions hashing batches concurrently never serialize on scratch,
// even in -shards 1 mode. The only cross-session structure on the
// digest path is the optional coordinator digest cache
// (SetDigestCache), which locks itself twice per batch: probe and
// refill.

import (
	"setsketch/internal/datagen"
	"setsketch/internal/ingest"
	"setsketch/internal/wal"
)

// Applier applies raw update batches for one session. It owns the
// coalescer and the shard-routing buffers its ApplyUpdates reuses batch
// to batch, making the warm cached-digest path allocation-free. An
// Applier is not safe for concurrent use; each session (or goroutine)
// holds its own, and all Appliers of one coordinator share its state,
// WAL, and digest cache.
type Applier struct {
	c     *Coordinator
	co    *ingest.Coalescer
	marks []bool // per-shard touched flags, reset after each batch
	order []int  // ascending touched-shard indexes
}

// NewApplier returns a fresh per-session applier. Sessions call this
// once at hello; one-off callers can use Coordinator.ApplyUpdates,
// which borrows from an internal pool.
func (c *Coordinator) NewApplier() *Applier {
	return &Applier{
		c:     c,
		co:    c.newCoalescer(),
		marks: make([]bool, len(c.shards)),
	}
}

// newCoalescer returns a coalescer over the coordinator's coins and
// digest cache.
func (c *Coordinator) newCoalescer() *ingest.Coalescer {
	return ingest.NewCoalescer(c.coins.Config, c.coins.Seed, c.coins.Copies, c.dcache)
}

// ApplyUpdates applies raw stream updates directly to the
// coordinator's synopses — the server side of a msgUpdateBatch
// streaming session, where thin clients forward updates for the
// coordinator to sketch centrally instead of sketching locally and
// shipping deltas. The batch is coalesced and its hash bill paid
// outside every lock (served from the coordinator digest cache when
// armed), the WAL append and the counter application happen under the
// destination shards' write locks (append-before-apply, log order is
// apply order per stream), and sessions writing disjoint shards
// proceed in parallel.
//
//sketchvet:wal-handler
func (a *Applier) ApplyUpdates(site string, ups []datagen.Update) error {
	if len(ups) == 0 {
		return nil
	}
	c := a.c
	a.co.Add(ups)
	entries := a.co.Take()
	a.co.Resolve(entries)
	var rec *wal.Record
	if c.wlog != nil {
		rec = c.wlog.BuildUpdates(site, ups)
	}
	a.markShards(site, entries)
	c.fence.RLock()
	c.lockShards(a.order)
	total, err := c.applyBatchShards(rec, site, uint64(len(ups)), entries)
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

// markShards computes the ascending set of stripes this batch touches
// (destination streams plus the site-accounting stripe) into a.order.
func (a *Applier) markShards(site string, entries []wal.DigestUpdate) {
	c := a.c
	if len(a.marks) != len(c.shards) {
		a.marks = make([]bool, len(c.shards)) // SetShards ran after NewApplier
	}
	a.order = a.order[:0]
	for i := range entries {
		si := c.shardIndex(entries[i].Stream)
		if !a.marks[si] {
			a.marks[si] = true
			a.order = append(a.order, si)
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

// applyBatchShards logs one raw update batch of count updates and
// applies its coalesced entries. The WAL append happens first
// (append-before-apply: an acked batch is always recoverable), inside
// the shard critical section so per-stream log order equals apply
// order, and under vmu when windowed views exist so their rings
// observe records in log order too.
// caller holds: mu
func (c *Coordinator) applyBatchShards(rec *wal.Record, site string, count uint64, entries []wal.DigestUpdate) (uint64, error) {
	if c.hasWindows.Load() {
		c.vmu.Lock()
		err := c.logRecord(rec)
		if err == nil {
			err = c.observeDigestsLocked(entries)
		}
		c.vmu.Unlock()
		if err != nil {
			return 0, err
		}
	} else if err := c.logRecord(rec); err != nil {
		return 0, err
	}
	if err := c.applyDigestsLocked(entries); err != nil {
		return 0, err
	}
	return c.creditLocked(site, count), nil
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

// observeDigestsLocked feeds digest entries to the windowed views'
// rings. Digests depend only on the stored coins, so the same words
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

// creditLocked records one accepted mutation's site and update-count
// accounting and returns the new credited total (watch triggers).
// caller holds: mu
func (c *Coordinator) creditLocked(site string, count uint64) uint64 {
	sh := c.shardFor(site)
	sh.sites[site]++
	sh.version++
	return c.updates.Add(count)
}
