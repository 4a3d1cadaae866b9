package distributed

// Durability wiring: write-ahead logging, snapshots, and crash
// recovery for the coordinator.
//
// The invariant everything here rests on is linearity: every synopsis
// counter is a sum of per-update contributions, so coordinator state
// is a pure function of the multiset of accepted mutations. The WAL
// records exactly that multiset (raw update batches verbatim, or
// serialized deltas; logs of older binaries may also hold packed
// digests), appended under the destination shards' write locks
// *before* the state mutation — so per-stream log order is apply
// order, an acknowledged frame is always in the log, and replaying a
// suffix of the log over a snapshot of the prefix reconstructs the
// exact (bit-identical) counters, not an approximation of them. For
// the same reason replay may regroup updates: consecutive update
// records coalesce to one net delta per (stream, element), hashed
// once. Replay is shard-layout-independent: records carry streams by
// name, so a log written under -shards N recovers bit-identically
// under any other shard count.

import (
	"bytes"
	"fmt"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/ingest"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

// AttachWAL arms write-ahead logging: every accepted mutation (raw
// update batch, synopsis delta, view-catalog change) is appended to l —
// under wal.SyncAlways, fsynced — before it is applied, so a frame is
// only acked once it is recoverable. Call it after Recover and before
// the coordinator serves traffic, like SetObservability.
func (c *Coordinator) AttachWAL(l *wal.Log) { c.wlog = l }

// WAL returns the attached write-ahead log, or nil when durability is
// off.
func (c *Coordinator) WAL() *wal.Log { return c.wlog }

// logRecord appends one record (built by the caller outside the shard
// locks) to the attached WAL. Called with the destination shards'
// write locks held, before the matching state mutation; a nil record,
// or no attached WAL, is a no-op. On error the caller must not apply:
// the batch is not acked and the write-ahead guarantee holds.
func (c *Coordinator) logRecord(rec *wal.Record) error {
	if c.wlog == nil || rec == nil {
		return nil
	}
	if _, err := c.wlog.Append(rec); err != nil {
		return fmt.Errorf("distributed: wal append: %w", err)
	}
	return nil
}

// deltaRecord renders a synopsis delta as a WAL record, or nil when no
// WAL is attached. Serialization happens outside every lock.
func (c *Coordinator) deltaRecord(site, stream string, fam *core.Family, count uint64) (*wal.Record, error) {
	if c.wlog == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if _, err := fam.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("distributed: serialize delta for wal: %w", err)
	}
	return &wal.Record{Type: wal.RecDelta, Site: site, Stream: stream, Count: count, Synopsis: buf.Bytes()}, nil
}

func errDigestWidth(got, want int) error {
	return fmt.Errorf("distributed: digest has %d words for %d copies", got, want)
}

// applyWALRecord applies one replayed record other than a raw update
// batch (the replayer coalesces those) — the recovery-side twin of the
// Apply* entry points, minus re-logging and watch triggers. Replay is single-threaded, but it takes the same
// locks as the live path so the lock discipline holds everywhere it is
// machine-checked.
//
//sketchvet:wal-exempt recovery replay applies already-logged records
func (c *Coordinator) applyWALRecord(rec *wal.Record) error {
	c.fence.RLock()
	defer c.fence.RUnlock()
	c.lockAllShards()
	defer c.unlockAllShards()
	var err error
	switch rec.Type {
	case wal.RecDigests:
		// Width-checked before any view ring sees the words.
		if err = c.replayDigestsLocked(rec.Digests); err == nil {
			c.creditLocked(rec.Site, rec.Count)
		}
	case wal.RecDelta:
		var fam *core.Family
		if fam, err = core.ReadFamily(bytes.NewReader(rec.Synopsis)); err != nil {
			break
		}
		if fam.Config() != c.coins.Config || fam.Seed() != c.coins.Seed || fam.Copies() != c.coins.Copies {
			err = core.ErrNotAligned
			break
		}
		_, err = c.applyDeltaShards(nil, rec.Site, rec.Stream, fam, rec.Count)
	case wal.RecMark:
		// site-local flush marks carry no coordinator state
	case wal.RecView:
		// Re-apply the catalog statement without re-logging it.
		c.vmu.Lock()
		err = c.applyViewStatementLocked(rec.Statement)
		c.catalogChangedLocked()
		c.vmu.Unlock()
	default:
		err = fmt.Errorf("unknown record type %d", rec.Type)
	}
	if err != nil {
		return fmt.Errorf("distributed: replay seq %d: %w", rec.Seq, err)
	}
	return nil
}

// replayDigestsLocked applies replayed digest entries to the merged
// synopses and, when windowed views exist, to their rings.
// caller holds: mu
func (c *Coordinator) replayDigestsLocked(entries []wal.DigestUpdate) error {
	if err := c.applyDigestsLocked(entries); err != nil {
		return err
	}
	if !c.hasWindows.Load() {
		return nil
	}
	c.vmu.Lock()
	defer c.vmu.Unlock()
	return c.observeDigestsLocked(entries)
}

// replayFlushKeys bounds the (stream, element) keys the recovery
// coalescer holds before it applies them.
const replayFlushKeys = 1 << 16

// replayChunk is how many coalesced entries one flush step resolves
// and applies, bounding the miss slab it hashes into.
const replayChunk = 1024

// replayer folds the consecutive RecUpdates records of a replayed WAL
// suffix through one ingest.Coalescer, and a flush resolves each key's
// digest once — through the digest cache, hashing only the misses —
// and applies it. Counters are int64 sums, so the regrouping leaves
// every family bit-identical to per-record replay, and windowed views
// already take every replayed update into the bucket current at replay
// time. It flushes before every other record type, so deltas and
// catalog changes keep their log position, at replayFlushKeys keys,
// and at the end of the suffix.
type replayer struct {
	c   *Coordinator
	co  *ingest.Coalescer
	seq uint64 // last record folded in

	applied, misses uint64
}

// apply is the Replay callback. Each RecUpdates record still credits
// its site and update count on its own.
//
//sketchvet:wal-exempt recovery replay applies already-logged records
func (r *replayer) apply(rec *wal.Record) error {
	if rec.Type != wal.RecUpdates {
		if err := r.flush(); err != nil {
			return err
		}
		return r.c.applyWALRecord(rec)
	}
	r.co.Add(rec.Updates)
	r.seq = rec.Seq
	c := r.c
	c.fence.RLock()
	sh := c.shardFor(rec.Site)
	sh.mu.Lock()
	c.creditLocked(rec.Site, rec.Count)
	sh.mu.Unlock()
	c.fence.RUnlock()
	if r.co.Len() >= replayFlushKeys {
		return r.flush()
	}
	return nil
}

// flush resolves and applies the coalesced entries in chunks of
// replayChunk, emptying the coalescer.
//
//sketchvet:wal-exempt recovery replay applies already-logged records
func (r *replayer) flush() error {
	kept := r.co.Take()
	c := r.c
	for len(kept) > 0 {
		chunk := kept[:min(len(kept), replayChunk)]
		kept = kept[len(chunk):]
		r.misses += uint64(r.co.Resolve(chunk))
		c.fence.RLock()
		c.lockAllShards()
		err := c.replayDigestsLocked(chunk)
		c.unlockAllShards()
		c.fence.RUnlock()
		if err != nil {
			return fmt.Errorf("distributed: replay through seq %d: %w", r.seq, err)
		}
		r.applied += uint64(len(chunk))
	}
	return nil
}

// RecoveryStats summarizes one crash recovery.
type RecoveryStats struct {
	SnapshotSeq     uint64 // covering seq of the snapshot loaded (0 if none)
	SnapshotStreams int    // streams restored from the snapshot
	Replayed        wal.ReplayStats

	// Coalesced counts the (stream, element) entries the replay applied
	// after coalescing its update records; DigestMisses counts the
	// digests it had to hash for them — the replay's hash bill.
	Coalesced    uint64
	DigestMisses uint64
}

// Recover rebuilds coordinator state from the newest loadable snapshot
// in l's directory plus the WAL suffix past it. The coordinator must
// be fresh (no traffic applied); call Recover before AttachWAL so
// replayed records are not re-logged. A missing or corrupt snapshot
// only lengthens the replay — recovery falls back to older snapshots
// and ultimately to replaying the whole log.
func (c *Coordinator) Recover(l *wal.Log) (RecoveryStats, error) {
	var rs RecoveryStats
	snap, err := wal.LoadLatestSnapshot(l.Dir(), c.log)
	if err != nil {
		return rs, err
	}
	from := uint64(1)
	if snap != nil {
		if err := c.InstallSnapshot(snap); err != nil {
			return rs, err
		}
		from = snap.Seq + 1
		rs.SnapshotSeq = snap.Seq
		rs.SnapshotStreams = len(snap.Streams)
	}
	start := time.Now()
	r := &replayer{c: c, co: c.newCoalescer()}
	rs.Replayed, err = l.Replay(from, r.apply)
	if err == nil {
		err = r.flush()
	}
	if err != nil {
		return rs, err
	}
	rs.Replayed.Elapsed = time.Since(start) // including the final flush
	rs.Coalesced, rs.DigestMisses = r.applied, r.misses
	c.log.Info("recovered",
		"snapshot_seq", rs.SnapshotSeq,
		"replayed_records", rs.Replayed.Records,
		"replayed_updates", rs.Replayed.Updates,
		"coalesced_entries", rs.Coalesced,
		"digest_misses", rs.DigestMisses,
		"last_seq", rs.Replayed.LastSeq,
		"elapsed", rs.Replayed.Elapsed.String())
	return rs, nil
}

// InstallSnapshot replaces the coordinator's state with a snapshot's.
// The snapshot's families are adopted directly (LoadLatestSnapshot
// already deep-read them from disk); they must match the coordinator's
// stored coins. Streams are routed to shards by name, so a snapshot
// written under any shard count installs under any other.
//
//sketchvet:wal-exempt snapshot install replaces state with an already-durable image
func (c *Coordinator) InstallSnapshot(snap *wal.Snapshot) error {
	for name, fam := range snap.Streams {
		if fam.Config() != c.coins.Config || fam.Seed() != c.coins.Seed || fam.Copies() != c.coins.Copies {
			return fmt.Errorf("distributed: snapshot stream %q: %w", name, core.ErrNotAligned)
		}
	}
	c.fence.Lock()
	defer c.fence.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.fams = make(map[string]*core.Family)
		sh.sites = make(map[string]int)
		sh.version++
		sh.mu.Unlock()
	}
	read := make(map[string]*core.Family, len(snap.Streams))
	for name, fam := range snap.Streams {
		sh := c.shardFor(name)
		sh.mu.Lock()
		sh.fams[name] = fam
		sh.mu.Unlock()
		read[name] = fam
	}
	for site, n := range snap.Sites {
		sh := c.shardFor(site)
		sh.mu.Lock()
		sh.sites[site] = n
		sh.mu.Unlock()
	}
	c.rmu.Lock()
	c.read.Store(&read)
	c.rmu.Unlock()
	c.updates.Store(snap.Updates)
	// Re-register the view catalog. All-time views read the installed
	// families, so they are exact at once. Window rings are NOT
	// snapshotted — windowed views refill from the replayed WAL suffix
	// only, landing in the bucket current at replay time, and
	// re-converge over one window of live traffic (see DESIGN.md
	// "Continuous queries" for the trade-off).
	c.vmu.Lock()
	defer c.vmu.Unlock()
	for _, stmt := range snap.Views {
		if err := c.applyViewStatementLocked(stmt); err != nil {
			return fmt.Errorf("distributed: snapshot view: %w", err)
		}
	}
	c.catalogChangedLocked()
	return nil
}

// WriteSnapshot writes one snapshot of the current state through the
// attached WAL and prunes segments the snapshot covers. The state is
// captured under the exclusive fence — every in-flight batch holds the
// fence shared for its whole append+apply window, so the captured
// families, site counts, view catalog, and covering WAL sequence are
// mutually consistent across all shards — and the (slow) disk write
// proceeds without any coordinator lock. A no-op when nothing was
// logged since the last snapshot.
func (c *Coordinator) WriteSnapshot() error {
	l := c.wlog
	if l == nil {
		return fmt.Errorf("distributed: no WAL attached")
	}
	c.fence.Lock()
	seq := l.LastSeq()
	total := c.updates.Load()
	siteCounts := make(map[string]int)
	famClones := make(map[string]*core.Family)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for name, f := range sh.fams {
			famClones[name] = f.Clone()
		}
		for site, n := range sh.sites {
			siteCounts[site] += n
		}
		sh.mu.RUnlock()
	}
	c.vmu.RLock()
	views := c.cqe.Statements()
	c.vmu.RUnlock()
	c.fence.Unlock()
	if seq == 0 || seq == l.LastSnapshotSeq() {
		return nil
	}
	return l.WriteSnapshot(seq, total, siteCounts, famClones, views)
}

// Periodic runs one coordinator task on a fixed interval, on its own
// goroutine, until Stop: periodic snapshots (StartSnapshotter) and
// window rotation (StartViewRotator).
type Periodic struct {
	stop chan struct{}
	done chan struct{}
}

// startPeriodic runs fn every interval. A non-positive interval
// disables the loop and returns nil (Stop on nil is a no-op).
func startPeriodic(interval time.Duration, fn func()) *Periodic {
	if interval <= 0 {
		return nil
	}
	p := &Periodic{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return p
}

// Stop halts the loop and waits for an in-flight run to finish.
func (p *Periodic) Stop() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
}

// StartSnapshotter snapshots coordinator state at the given interval
// so recovery replay stays short and covered WAL segments can be
// pruned. A non-positive interval disables periodic snapshots and
// returns nil; callers can still snapshot explicitly via
// Coordinator.WriteSnapshot. Stop does not write a final snapshot —
// shutdown does that explicitly once the server has drained.
func StartSnapshotter(c *Coordinator, interval time.Duration, log *obs.Logger) *Periodic {
	log = log.Named("snapshot")
	return startPeriodic(interval, func() {
		if err := c.WriteSnapshot(); err != nil {
			log.Warn("periodic snapshot failed", "err", err.Error())
		}
	})
}
