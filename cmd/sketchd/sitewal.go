package main

import (
	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

// siteJournal is the site-local durability of `sketchd stream`: raw
// update batches are journaled before they enter the local pipeline,
// and a mark record is appended once the coordinator has acked the
// flush covering them. After a crash the journal's unmarked tail is
// exactly the work the coordinator never acked; the restarted site
// ships it before reading new input. Delivery is at-least-once — a
// crash between the coordinator's ack and the mark append resends one
// flush — and the coordinator's own WAL is the exactness layer.
//
// Pruning rides on the snapshot machinery: a site holds no
// recoverable sketch state (that lives at the coordinator), so its
// checkpoints are empty snapshots whose manifest just names the acked
// mark, letting covered segments be deleted and restarts skip
// straight to the live tail.
type siteJournal struct {
	l    *wal.Log
	site string

	marks       uint64 // acked marks since the last checkpoint
	lastMarkSeq uint64
}

// markCheckpointEvery bounds how many acked marks accumulate before a
// pruning checkpoint is written (rotation also forces one).
const markCheckpointEvery = 256

// openSiteJournal opens (or creates) a site journal and returns the
// unmarked tail left by a previous crash, oldest first.
func openSiteJournal(dir, site string, coins distributed.Coins, fsyncPolicy string,
	segSize int64, reg *obs.Registry, log *obs.Logger) (*siteJournal, []datagen.Update, error) {
	policy, ival, err := wal.ParseSyncPolicy(fsyncPolicy)
	if err != nil {
		return nil, nil, err
	}
	l, err := wal.Open(dir, wal.Options{
		Config:       coins.Config,
		Seed:         coins.Seed,
		Copies:       coins.Copies,
		SegmentSize:  segSize,
		Sync:         policy,
		SyncInterval: ival,
		Obs:          reg,
		Log:          log,
	})
	if err != nil {
		return nil, nil, err
	}
	j := &siteJournal{l: l, site: site}
	pending, err := j.pending(log)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	return j, pending, nil
}

// pending replays the journal and collects the updates recorded after
// the last acked mark.
func (j *siteJournal) pending(log *obs.Logger) ([]datagen.Update, error) {
	from := uint64(1)
	snap, err := wal.LoadLatestSnapshot(j.l.Dir(), log)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		from = snap.Seq + 1
	}
	var tail []datagen.Update
	_, err = j.l.Replay(from, func(rec *wal.Record) error {
		switch rec.Type {
		case wal.RecMark:
			tail = tail[:0] // everything before the mark was acked
			j.lastMarkSeq = rec.Seq
		case wal.RecUpdates:
			tail = append(tail, rec.Updates...)
		}
		return nil
	})
	return tail, err
}

// LogBatch journals one raw batch before it enters the local pipeline.
// Nil-safe: without a journal it is a no-op.
func (j *siteJournal) LogBatch(ups []datagen.Update) error {
	if j == nil || len(ups) == 0 {
		return nil
	}
	_, err := j.l.Append(j.l.BuildUpdates(j.site, ups))
	return err
}

// MarkAcked records that every journaled batch so far has been acked
// by the coordinator. Periodically — and whenever a rotation left a
// sealed segment behind — it also checkpoints so covered segments are
// pruned.
func (j *siteJournal) MarkAcked() error {
	if j == nil {
		return nil
	}
	seq, err := j.l.Append(&wal.Record{Type: wal.RecMark, Site: j.site})
	if err != nil {
		return err
	}
	j.lastMarkSeq = seq
	j.marks++
	if j.marks%markCheckpointEvery == 0 || j.l.SegmentCount() > 1 {
		return j.l.WriteSnapshot(seq, 0, nil, nil, nil)
	}
	return nil
}

// Close checkpoints at the last acked mark (never past it: an
// unmarked tail must survive for the next run to replay) and closes
// the journal.
func (j *siteJournal) Close() error {
	if j == nil {
		return nil
	}
	if j.lastMarkSeq > j.l.LastSnapshotSeq() {
		j.l.WriteSnapshot(j.lastMarkSeq, 0, nil, nil, nil)
	}
	return j.l.Close()
}
