package distributed

// Continuous-view catalog: CREATE VIEW / DROP VIEW statements applied
// to the embedded cq.Engine under vmu, with each accepted statement
// WAL-logged (append-before-apply, like every other mutation) so the
// catalog survives restarts. Catalog changes additionally hold the
// fence exclusively: no update batch is in flight while the view set
// changes, which is what lets batch writers consult the hasWindows flag
// with one atomic load and skip the engine entirely when no windowed
// view exists. An all-time view is a named, compiled expression over
// the coordinator's own stream families and holds no state, so it sees
// every update the streams ever sent and survives any recovery exactly.
// Recovery re-runs the snapshot's statement list plus the RecView
// suffix; window rings then rebuild from the replayed update records.

import (
	"fmt"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/cq"
	"setsketch/internal/wal"
)

// SetCQOptions reconfigures the continuous-view engine (group bound,
// group separator, window clock). Call it before Recover and before
// the coordinator serves traffic, like SetObservability — it replaces
// the engine, discarding any registered views. opts.NewFamily is
// overridden with the coordinator's coins.
//
//sketchvet:wal-exempt pre-traffic setup: replaces the engine before recovery or traffic
func (c *Coordinator) SetCQOptions(opts cq.Options) error {
	opts.NewFamily = c.coins.NewFamily
	e, err := cq.NewEngine(opts)
	if err != nil {
		return err
	}
	c.vmu.Lock()
	c.cqe = e
	c.catalogChangedLocked()
	c.vmu.Unlock()
	return nil
}

// catalogChangedLocked counts one catalog change and re-derives the
// batch writers' fast-path flag. Callers that can race live batches
// (CreateView, DropView) also hold the fence exclusively, so no batch
// observes the flag mid-change.
// caller holds: vmu
func (c *Coordinator) catalogChangedLocked() {
	c.catalog++
	windows := false
	for _, spec := range c.cqe.Specs() {
		windows = windows || spec.Windowed()
	}
	c.hasWindows.Store(windows)
}

// CreateView registers a continuous view from a CREATE VIEW statement,
// WAL-logging the canonical form before applying it. The returned spec
// is the validated, canonicalized definition.
//
//sketchvet:wal-handler
func (c *Coordinator) CreateView(statement string) (cq.ViewSpec, error) {
	st, err := cq.ParseStatement(statement)
	if err != nil {
		return cq.ViewSpec{}, err
	}
	if st.Create == nil {
		return cq.ViewSpec{}, fmt.Errorf("distributed: expected a CREATE VIEW statement")
	}
	spec := *st.Create
	c.fence.Lock()
	defer c.fence.Unlock()
	c.vmu.Lock()
	defer c.vmu.Unlock()
	// Duplicate check precedes the WAL append so the post-append
	// Register cannot fail (the statement parsed, so it validates).
	if c.cqe.View(spec.Name) != nil {
		return cq.ViewSpec{}, fmt.Errorf("distributed: view %q already exists", spec.Name)
	}
	if err := c.logRecord(c.viewRecord(spec.Name, spec.Statement())); err != nil {
		return cq.ViewSpec{}, err
	}
	if _, err := c.cqe.Register(spec); err != nil {
		return cq.ViewSpec{}, err // unreachable: validated + no duplicate
	}
	c.catalogChangedLocked()
	c.log.Info("view created", "view", spec.Name, "statement", spec.Statement())
	return spec, nil
}

// DropView removes a view from the catalog, WAL-logging the drop.
// Watchers attached to the view keep running and report an unknown-view
// error each round until closed.
//
//sketchvet:wal-handler
func (c *Coordinator) DropView(name string) error {
	c.fence.Lock()
	defer c.fence.Unlock()
	c.vmu.Lock()
	defer c.vmu.Unlock()
	if c.cqe.View(name) == nil {
		return fmt.Errorf("distributed: view %q does not exist", name)
	}
	if err := c.logRecord(c.viewRecord(name, "DROP VIEW "+name)); err != nil {
		return err
	}
	c.cqe.Drop(name)
	c.catalogChangedLocked()
	c.log.Info("view dropped", "view", name)
	return nil
}

// viewRecord renders a catalog statement as a WAL record, or nil when
// durability is off.
func (c *Coordinator) viewRecord(name, statement string) *wal.Record {
	if c.wlog == nil {
		return nil
	}
	return &wal.Record{Type: wal.RecView, View: name, Statement: statement}
}

// applyViewStatementLocked applies a catalog statement to the engine
// without logging — the recovery path (snapshot view lists and RecView
// replay).
// caller holds: vmu
//
//sketchvet:wal-exempt recovery replay applies already-logged catalog records
func (c *Coordinator) applyViewStatementLocked(statement string) error {
	st, err := cq.ParseStatement(statement)
	if err != nil {
		return err
	}
	switch {
	case st.Create != nil:
		if c.cqe.View(st.Create.Name) != nil {
			// A snapshot view re-created by a replayed RecView (the
			// record predates the snapshot's catalog capture but was
			// not pruned yet): the catalog already has the newer state.
			return nil
		}
		_, err := c.cqe.Register(*st.Create)
		return err
	default:
		c.cqe.Drop(st.Drop)
		return nil
	}
}

// Views returns every registered view's definition, sorted by name.
func (c *Coordinator) Views() []cq.ViewSpec {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	return c.cqe.Specs()
}

// ViewStatements returns the catalog as canonical CREATE VIEW
// statements, sorted by name.
func (c *Coordinator) ViewStatements() []string {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	return c.cqe.Statements()
}

// RotateViews advances every windowed view's ring to the engine clock's
// now, evicting aged-out buckets. Updates rotate their own target rings
// lazily; this sweep exists so idle views still age (and watchers see
// the eviction through the view's version stamp).
//
//sketchvet:wal-exempt rotation is clock-derived; recovery re-ages windows from record timestamps
func (c *Coordinator) RotateViews() {
	// Read the clock through the engine under the same lock as the
	// rotation: SetCQOptions swaps the whole engine, and reading c.cqe
	// unlocked could rotate the old engine with the new engine's now.
	c.vmu.Lock()
	c.cqe.RotateAll(c.cqe.Now())
	c.vmu.Unlock()
}

// evaluateView evaluates one view for a watch round; ok is false when
// it does not exist. A windowed view reads its rings under vmu. An
// all-time view reads the stream families under the shard read locks
// an ad-hoc estimate of its expression takes, or every shard's when
// grouped (its groups' streams are unknown until read).
func (c *Coordinator) evaluateView(name string, eps float64) (spec cq.ViewSpec, res []cq.GroupResult, ok bool) {
	c.vmu.RLock()
	e := c.cqe
	v := e.View(name)
	if v != nil && v.Spec().Windowed() {
		res = e.Evaluate(v, eps, core.EstimateOptions{})
	}
	c.vmu.RUnlock()
	switch {
	case v == nil:
		return spec, nil, false
	case v.Spec().Windowed():
		return v.Spec(), res, true
	}
	var locks []int
	if v.Spec().Grouped() {
		for si := range c.shards {
			locks = append(locks, si)
		}
	} else {
		locks = c.shardLockSet(v.Streams())
	}
	for _, si := range locks {
		c.shards[si].mu.RLock()
	}
	res = e.EvaluateFamilies(v, *c.read.Load(), eps, core.EstimateOptions{})
	for _, si := range locks {
		c.shards[si].mu.RUnlock()
	}
	return v.Spec(), res, true
}

// viewVersions fills out[i] with a change stamp for view names[i] (0
// when it does not exist) and returns the catalog's change count. A
// windowed view's stamp is its version offset by 1. An all-time view's
// comes from the families it reads: the sum of its streams' stamps
// when ungrouped, StateVersion when grouped (so a new group's first
// stream is a change).
func (c *Coordinator) viewVersions(names []string, out []uint64) uint64 {
	views := make([]*cq.View, len(names))
	c.vmu.RLock()
	catalog := c.catalog
	for i, name := range names {
		out[i] = 0
		if views[i] = c.cqe.View(name); views[i] != nil {
			out[i] = views[i].Version() + 1
		}
	}
	c.vmu.RUnlock()
	for i, v := range views {
		switch {
		case v == nil || v.Spec().Windowed():
		case v.Spec().Grouped():
			out[i] = c.StateVersion()
		default:
			stamps := make([]uint64, len(v.Streams()))
			c.streamVersions(v.Streams(), stamps)
			for _, s := range stamps {
				out[i] += s
			}
		}
	}
	return catalog
}

// StartViewRotator rotates windowed views at the given interval
// (typically well under the smallest SLIDE in use), so eviction happens
// on time even when no updates arrive. A non-positive interval disables
// the loop and returns nil; updates and watch rounds still rotate
// lazily.
func StartViewRotator(c *Coordinator, interval time.Duration) *Periodic {
	return startPeriodic(interval, c.RotateViews)
}
