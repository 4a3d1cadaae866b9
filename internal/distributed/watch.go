package distributed

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/cq"
	"setsketch/internal/expr"
)

// Continuous queries: clients register set expressions once, and the
// coordinator re-evaluates them as the merged synopses evolve — every
// N credited updates, on a wall-clock interval, or on an explicit
// Tick — streaming each round of estimates to the watcher's bounded
// channel. This turns the paper's point-in-time "Set-Expression
// Cardinality Query Processor" into a standing-query engine over the
// live update stream.
//
// Delivery is strictly non-blocking: a consumer that stops draining
// its channel first loses results and, past MaxDrops consecutive
// losses, is unregistered and its channel closed — one slow watcher
// can never stall ingest or the other watchers.

// WatchSpec describes one standing continuous query registration.
type WatchSpec struct {
	// Exprs are the set expressions re-evaluated each round. All must
	// parse at registration time; streams they reference may appear
	// later (evaluation errors are reported per-round in Err).
	Exprs []string
	// Views names continuous views (CreateView) this watcher follows.
	// Every named view must exist at registration; rounds evaluate each
	// view per live group, honoring the view's window and emit mode. A
	// view dropped mid-watch reports an unknown-view error each round.
	Views []string
	// Eps is the accuracy parameter passed to the estimator.
	Eps float64
	// EveryUpdates re-evaluates after this many newly credited stream
	// updates. 0 disables update-driven rounds.
	EveryUpdates uint64
	// Interval adds wall-clock rounds on top of update-driven ones.
	// 0 disables timed rounds.
	Interval time.Duration
	// Buffer is the watcher's bounded result-queue length (default 16).
	Buffer int
	// MaxDrops is how many consecutive results may be lost to a full
	// queue before the watcher is dropped as a slow consumer
	// (default 8).
	MaxDrops int
}

// WatchResult is one continuous-query evaluation: either an ad-hoc
// expression round (Expr set) or one group of a continuous-view round
// (View set; Group "" for ungrouped views).
type WatchResult struct {
	Expr    string
	View    string // continuous-view name, for view rounds
	Group   string // group key of a grouped view's result
	Epoch   uint64 // evaluation round, per watcher
	Updates uint64 // coordinator update count when the round fired
	Est     core.Estimate
	// Delta is the signed change in the estimate since this group's
	// last emitted round (ISTREAM rounds only; RSTREAM leaves it 0).
	Delta float64
	Err   string // per-expression evaluation error, if any
}

// Watcher is one registered continuous query. Results arrive on C,
// which is closed when the watcher is dropped (slow consumer) or
// closed by either side.
type Watcher struct {
	C <-chan WatchResult

	c    *Coordinator
	id   int
	spec WatchSpec

	// queries holds the parsed + compiled form of spec.Exprs, built
	// once at registration and reused every round; streams is the
	// sorted union of streams they reference; views mirrors spec.Views.
	// All are immutable.
	queries []compiledExpr
	streams []string
	views   []string

	// lastEval and epoch are guarded by c.wmu, as are the round-skip
	// fields: evaluated ("at least one round ran"), lastVersions /
	// lastViewVersions (change stamps at the last evaluated round,
	// aligned with streams and views respectively) and lastCatalog.
	// guarded by: c.wmu
	lastEval, epoch uint64
	// guarded by: c.wmu
	evaluated, lastHadError bool
	// guarded by: c.wmu
	lastVersions, lastViewVersions []uint64
	// guarded by: c.wmu
	lastCatalog uint64
	// lastVals backs ISTREAM emit filtering: view name → group key →
	// last emitted estimate.
	// guarded by: c.wmu
	lastVals map[string]map[string]float64

	mu sync.Mutex // guards ch sends vs close; never hold c.wmu under it
	ch chan WatchResult
	// guarded by: mu
	drops int
	// guarded by: mu
	closed bool
	// guarded by: mu
	reason  string
	tickers chan struct{} // closed to stop the interval goroutine
}

// Watch registers a standing continuous query. Every expression must
// parse; at least one trigger (EveryUpdates or Interval) must be set.
//
// Delivery semantics: each watcher owns a bounded queue of
// spec.Buffer results, and the coordinator never blocks on it. A
// round evaluated while the queue is full is lost, and after
// spec.MaxDrops consecutive losses the watcher is unregistered and
// its channel closed — Reason() then describes the drop, and
// protocol clients receive it as a terminal error frame. Consumers
// that must not lose rounds should drain C promptly or size Buffer
// for their worst-case stall.
func (c *Coordinator) Watch(spec WatchSpec) (*Watcher, error) {
	if len(spec.Exprs) == 0 && len(spec.Views) == 0 {
		return nil, fmt.Errorf("distributed: watch registers no expressions or views")
	}
	for _, name := range spec.Views {
		c.vmu.RLock()
		known := c.cqe.View(name) != nil
		c.vmu.RUnlock()
		if !known {
			return nil, fmt.Errorf("distributed: watch references unknown view %q", name)
		}
	}
	// Parse and compile every expression once here; rounds reuse the
	// compiled queries instead of re-parsing the strings.
	queries := make([]compiledExpr, 0, len(spec.Exprs))
	streamSet := make(map[string]struct{})
	for _, e := range spec.Exprs {
		node, err := expr.Parse(e)
		if err != nil {
			return nil, fmt.Errorf("distributed: watch expression %q: %w", e, err)
		}
		ce, err := c.compile(e, node)
		if err != nil {
			return nil, fmt.Errorf("distributed: watch expression %q: %w", e, err)
		}
		queries = append(queries, ce)
		for _, name := range expr.Streams(node) {
			streamSet[name] = struct{}{}
		}
	}
	streams := make([]string, 0, len(streamSet))
	for name := range streamSet {
		streams = append(streams, name)
	}
	sort.Strings(streams)
	if spec.EveryUpdates == 0 && spec.Interval <= 0 {
		return nil, fmt.Errorf("distributed: watch needs EveryUpdates or Interval")
	}
	if spec.Eps <= 0 {
		spec.Eps = 0.1
	}
	if spec.Buffer <= 0 {
		spec.Buffer = 16
	}
	if spec.MaxDrops <= 0 {
		spec.MaxDrops = 8
	}
	w := &Watcher{
		c:                c,
		spec:             spec,
		queries:          queries,
		streams:          streams,
		views:            append([]string(nil), spec.Views...),
		lastVersions:     make([]uint64, len(streams)),
		lastViewVersions: make([]uint64, len(spec.Views)),
		lastVals:         make(map[string]map[string]float64),
		ch:               make(chan WatchResult, spec.Buffer),
		tickers:          make(chan struct{}),
	}
	w.C = w.ch
	c.wmu.Lock()
	w.id = c.nextID
	c.nextID++
	w.lastEval = c.Updates()
	c.watchers[w.id] = w
	c.wmu.Unlock()
	if spec.Interval > 0 {
		go w.runTicker()
	}
	return w, nil
}

func (w *Watcher) runTicker() {
	t := time.NewTicker(w.spec.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.c.evalWatcher(w, true)
		case <-w.tickers:
			return
		}
	}
}

// Close unregisters the watcher and closes its channel. Safe to call
// from either side, multiple times.
func (w *Watcher) Close() { w.drop("closed") }

// Reason reports why the watcher's channel closed ("" while open,
// "closed" after Close, or a slow-consumer description).
func (w *Watcher) Reason() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reason
}

// Dropped reports how many results have been lost to a full queue in
// the current consecutive run.
func (w *Watcher) Dropped() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.drops
}

// drop closes the watcher with a reason and unregisters it.
func (w *Watcher) drop(reason string) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.reason = reason
	close(w.ch)
	close(w.tickers)
	w.mu.Unlock()
	w.c.wmu.Lock()
	delete(w.c.watchers, w.id)
	w.c.wmu.Unlock()
	if reason != "closed" {
		w.c.log.Warn("watcher dropped", "id", w.id, "reason", reason)
	}
}

// CloseWatchers drops every registered watcher with the given reason,
// closing their channels. Protocol sessions relay the reason to their
// clients as a terminal error frame, so a shutting-down coordinator
// should call this before tearing down connections.
func (c *Coordinator) CloseWatchers(reason string) {
	c.wmu.Lock()
	all := make([]*Watcher, 0, len(c.watchers))
	for _, w := range c.watchers {
		all = append(all, w)
	}
	c.wmu.Unlock()
	for _, w := range all {
		w.drop(reason)
	}
}

// deliver enqueues one result without ever blocking. A full queue
// drops the result; MaxDrops consecutive losses drop the watcher.
func (w *Watcher) deliver(res WatchResult) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	select {
	case w.ch <- res:
		w.drops = 0
		w.mu.Unlock()
		w.c.met.watchDelivered.Inc()
	default: // queue full: lose the result, never block ingest
		w.drops++
		over := w.drops > w.spec.MaxDrops
		drops := w.drops
		w.mu.Unlock()
		w.c.met.watchDropped.Inc()
		if over {
			w.c.met.watchSlowDrops.Inc()
			w.drop(fmt.Sprintf("slow consumer: %d consecutive results dropped", drops))
		}
	}
}

// evalDue runs an evaluation round for every watcher whose
// update-count threshold has been crossed. Called after mutations,
// without c.mu held.
func (c *Coordinator) evalDue(total uint64) {
	var due []*Watcher
	c.wmu.Lock()
	for _, w := range c.watchers {
		if w.spec.EveryUpdates > 0 && total-w.lastEval >= w.spec.EveryUpdates {
			w.lastEval = total
			w.epoch++
			due = append(due, w)
		}
	}
	c.wmu.Unlock()
	for _, w := range due {
		c.evalRound(w)
	}
}

// evalWatcher runs one evaluation round for a single watcher; force
// rounds (ticks) fire regardless of the update threshold.
func (c *Coordinator) evalWatcher(w *Watcher, force bool) {
	total := c.Updates()
	c.wmu.Lock()
	if _, ok := c.watchers[w.id]; !ok {
		c.wmu.Unlock()
		return
	}
	if !force && (w.spec.EveryUpdates == 0 || total-w.lastEval < w.spec.EveryUpdates) {
		c.wmu.Unlock()
		return
	}
	w.lastEval = total
	w.epoch++
	c.wmu.Unlock()
	c.evalRound(w)
}

// evalRound evaluates all of a watcher's expressions once and delivers
// the results — unless nothing the watcher reads has changed since its
// last evaluated round, in which case the round is skipped (counted in
// watch_rounds_skipped_total, no delivery). The first round always
// evaluates, and rounds whose previous evaluation reported any
// per-expression error keep re-evaluating (the error, e.g. a stream
// that has not appeared yet, must keep reaching the consumer).
// Versions are sampled before evaluating, so updates racing with the
// evaluation re-trigger the next round rather than being lost.
func (c *Coordinator) evalRound(w *Watcher) {
	// Windowed views age by rotation: sweep before sampling versions so
	// an eviction due now is visible to this round, not the next.
	if len(w.views) > 0 {
		c.RotateViews()
	}
	versions := make([]uint64, len(w.streams))
	c.streamVersions(w.streams, versions)
	viewVersions := make([]uint64, len(w.views))
	catalog := c.viewVersions(w.views, viewVersions)
	c.wmu.Lock()
	epoch := w.epoch
	skip := w.evaluated && !w.lastHadError &&
		versionsEqual(versions, w.lastVersions) &&
		versionsEqual(viewVersions, w.lastViewVersions) &&
		(len(w.views) == 0 || catalog == w.lastCatalog)
	if !skip {
		w.evaluated = true
		copy(w.lastVersions, versions)
		copy(w.lastViewVersions, viewVersions)
		w.lastCatalog = catalog
	}
	c.wmu.Unlock()
	if skip {
		c.met.watchSkipped.Inc()
		return
	}
	total := c.Updates()
	c.met.watchRounds.Inc()
	c.met.watchEvals.Add(uint64(len(w.queries)))
	hadErr := false
	for _, ce := range w.queries {
		res := WatchResult{Expr: ce.src, Epoch: epoch, Updates: total}
		est, err := c.estimateCompiled(ce, w.spec.Eps)
		if err != nil {
			res.Err = err.Error()
			hadErr = true
		} else {
			res.Est = est
		}
		w.deliver(res)
	}
	if c.evalViews(w, epoch, total) {
		hadErr = true
	}
	c.wmu.Lock()
	w.lastHadError = hadErr
	c.wmu.Unlock()
}

// evalViews runs one round over every view the watcher follows,
// delivering per-group results after the view's emit-mode filtering.
// It reports whether any result carried an error (which keeps the
// watcher re-evaluating every round until the error clears).
func (c *Coordinator) evalViews(w *Watcher, epoch, total uint64) bool {
	hadErr := false
	for _, name := range w.views {
		spec, results, ok := c.evaluateView(name, w.spec.Eps)
		c.met.cqViewRounds.Inc()
		if !ok {
			hadErr = true
			c.met.cqViewErrors.Inc()
			w.deliver(WatchResult{View: name, Epoch: epoch, Updates: total,
				Err: fmt.Sprintf("unknown view %q", name)})
			continue
		}
		if spec.Emit == cq.EmitIStream {
			results = w.filterIStream(name, results)
		}
		for _, r := range results {
			if r.Err != "" {
				hadErr = true
				c.met.cqViewErrors.Inc()
			}
			w.deliver(WatchResult{View: name, Group: r.Group, Epoch: epoch,
				Updates: total, Est: r.Est, Delta: r.Delta, Err: r.Err})
		}
		c.met.cqViewResults.Add(uint64(len(results)))
	}
	return hadErr
}

// filterIStream keeps only groups whose estimate changed since the
// watcher last emitted them, stamping each survivor's Delta. Vanished
// groups (evicted, or aged to nothing) are forgotten — no retraction is
// emitted, and a reappearing group re-emits from zero.
func (w *Watcher) filterIStream(view string, results []cq.GroupResult) []cq.GroupResult {
	w.c.wmu.Lock()
	defer w.c.wmu.Unlock()
	last := w.lastVals[view]
	if last == nil {
		last = make(map[string]float64)
		w.lastVals[view] = last
	}
	seen := make(map[string]bool, len(results))
	out := make([]cq.GroupResult, 0, len(results))
	for _, r := range results {
		seen[r.Group] = true
		if r.Err != "" {
			out = append(out, r) // errors always reach the consumer
			continue
		}
		prev := last[r.Group]
		if _, ok := last[r.Group]; ok && prev == r.Est.Value {
			continue
		}
		r.Delta = r.Est.Value - prev
		last[r.Group] = r.Est.Value
		out = append(out, r)
	}
	for g := range last {
		if !seen[g] {
			delete(last, g)
		}
	}
	return out
}

func versionsEqual(a, b []uint64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// Tick forces an evaluation round for every registered watcher — the
// epoch tick of the continuous-query model, driven by whatever clock
// the embedding system prefers.
func (c *Coordinator) Tick() {
	c.wmu.Lock()
	due := make([]*Watcher, 0, len(c.watchers))
	for _, w := range c.watchers {
		w.epoch++
		due = append(due, w)
	}
	c.wmu.Unlock()
	for _, w := range due {
		c.evalRound(w)
	}
}

// Watchers reports how many continuous queries are registered.
func (c *Coordinator) Watchers() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return len(c.watchers)
}
