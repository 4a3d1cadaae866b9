package cq

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/expr"
	"setsketch/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// NewFamily mints an empty family aligned with the embedding
	// coordinator's stored coins (required): every bucket and group
	// family must merge and digest-apply against the same coins.
	NewFamily func() (*core.Family, error)
	// MaxGroups bounds the live groups of each grouped view; past it
	// the least-recently-updated group is evicted. 0 selects the
	// default (4096); negative disables the bound.
	MaxGroups int
	// GroupSep splits a physical stream name into ⟨group, logical⟩ for
	// grouped views ("acme:logins" → group "acme", logical "logins").
	// Default ":".
	GroupSep string
	// Now is the window clock (default time.Now). Tests and examples
	// inject fake clocks to drive rotation deterministically.
	Now func() time.Time
}

// DefaultMaxGroups bounds grouped views that do not override it.
const DefaultMaxGroups = 4096

func (o Options) withDefaults() Options {
	if o.MaxGroups == 0 {
		o.MaxGroups = DefaultMaxGroups
	}
	if o.MaxGroups < 0 {
		o.MaxGroups = 0 // unbounded
	}
	if o.GroupSep == "" {
		o.GroupSep = ":"
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// engineMetrics is the engine's counter set (gauges — views, buckets,
// groups — are registered by the embedder, which owns the lock they
// must be read under).
type engineMetrics struct {
	updates         *obs.Counter
	windowRotations *obs.Counter
	windowEvictions *obs.Counter
	groupEvictions  *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		updates: reg.Counter("cq_view_updates_total",
			"Stream updates routed into continuous-view window/group state."),
		windowRotations: reg.Counter("cq_window_rotations_total",
			"Window ring bucket advances across all views and groups."),
		windowEvictions: reg.Counter("cq_window_evictions_total",
			"Non-empty window buckets dropped after falling out of their window (exact eviction by linearity)."),
		groupEvictions: reg.Counter("cq_group_evictions_total",
			"Group sketch states evicted by the bounded per-view group table (least-recently-updated first)."),
	}
}

// Engine holds the continuous-view catalog and all window/group sketch
// state. It does no locking: the embedding coordinator calls every
// mutating method (Register, Drop, Observe*, MergeDelta, Rotate*)
// under its state write lock and the read-only ones (Evaluate, Specs,
// counters) under at least a read lock.
type Engine struct {
	opts Options
	met  engineMetrics
	log  *obs.Logger

	views map[string]*View
	// routes caches physical stream → observation targets; rebuilt
	// lazily after any Register/Drop. Its keys mirror the
	// coordinator's stream map, so it is bounded by the same
	// cardinality.
	routes map[string][]route
	// empty backs Evaluate's missing-stream backfill: a referenced
	// stream with no in-window state is an empty set, not an error
	// (after eviction the two are indistinguishable anyway). Estimation
	// is read-only, so one shared instance serves every view.
	empty *core.Family
}

// route is one resolved observation target: updates to a physical
// stream feed view v's group as logical stream logical.
type route struct {
	v       *View
	group   string
	logical string
}

// NewEngine creates an empty engine.
func NewEngine(opts Options) (*Engine, error) {
	if opts.NewFamily == nil {
		return nil, fmt.Errorf("cq: Options.NewFamily is required")
	}
	empty, err := opts.NewFamily()
	if err != nil {
		return nil, err
	}
	return &Engine{
		opts:   opts.withDefaults(),
		met:    newEngineMetrics(nil),
		views:  make(map[string]*View),
		routes: make(map[string][]route),
		empty:  empty,
	}, nil
}

// SetObservability attaches a metrics registry and logger, exporting
// the cq_* counters documented in OPERATIONS.md. Call once, before
// traffic; either argument may be nil.
func (e *Engine) SetObservability(reg *obs.Registry, log *obs.Logger) {
	e.met = newEngineMetrics(reg)
	e.log = log.Named("cq")
}

// Now returns the engine's window clock reading.
func (e *Engine) Now() time.Time { return e.opts.Now() }

// View is one registered continuous view: its spec, compiled query,
// and keyed window state. All fields are engine-lock-domain state.
type View struct {
	spec      ViewSpec
	q         *core.Query
	streams   []string // sorted logical streams the expression reads
	streamSet map[string]struct{}
	groups    *Groups
	// version stamps content-visible changes (observations, non-empty
	// evictions, group evictions) so watchers can skip rounds whose
	// window contents cannot have changed.
	version uint64
}

// Spec returns the view's definition.
func (v *View) Spec() ViewSpec { return v.spec }

// Version returns the view's change stamp.
func (v *View) Version() uint64 { return v.version }

// Streams returns the logical streams the view's expression reads.
func (v *View) Streams() []string { return append([]string(nil), v.streams...) }

// newRing mints one group's ring for this view.
func (v *View) newRing(e *Engine) *Ring {
	return NewRing(v.spec, e.opts.Now(), e.opts.NewFamily)
}

// Register adds a view to the catalog. The spec is validated (and its
// expression canonicalized); a name collision is an error.
func (e *Engine) Register(spec ViewSpec) (*View, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, ok := e.views[spec.Name]; ok {
		return nil, fmt.Errorf("cq: view %q already exists", spec.Name)
	}
	node, err := expr.Parse(spec.Expr)
	if err != nil {
		return nil, err // unreachable: Validate parsed it
	}
	q, err := core.CompileQuery(node)
	if err != nil {
		return nil, err
	}
	v := &View{
		spec:      spec,
		q:         q,
		streams:   expr.Streams(node),
		streamSet: make(map[string]struct{}),
	}
	for _, name := range v.streams {
		v.streamSet[name] = struct{}{}
	}
	max := e.opts.MaxGroups
	if !spec.Grouped() {
		max = 0 // single implicit group, never evicted
	}
	v.groups = newGroups(max)
	if !spec.Grouped() {
		// Eager implicit group so evaluation always yields one result
		// row (estimate 0 before any update), never an empty set of
		// groups.
		v.groups.Touch("", func() *Ring { return v.newRing(e) })
	}
	e.views[spec.Name] = v
	e.routes = make(map[string][]route)
	return v, nil
}

// Drop removes a view and all its state; it reports whether the view
// existed.
func (e *Engine) Drop(name string) bool {
	if _, ok := e.views[name]; !ok {
		return false
	}
	delete(e.views, name)
	e.routes = make(map[string][]route)
	return true
}

// View returns a registered view, or nil.
func (e *Engine) View(name string) *View { return e.views[name] }

// Specs returns every registered view's definition, sorted by name.
func (e *Engine) Specs() []ViewSpec {
	names := make([]string, 0, len(e.views))
	for n := range e.views {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]ViewSpec, 0, len(names))
	for _, n := range names {
		out = append(out, e.views[n].spec)
	}
	return out
}

// Statements returns the canonical CREATE VIEW statement of every
// registered view, sorted by name — the catalog serialization
// persisted in snapshots.
func (e *Engine) Statements() []string {
	specs := e.Specs()
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.Statement())
	}
	return out
}

// route resolves a physical stream's observation targets, caching the
// answer. Ungrouped views match the stream name exactly; grouped views
// match "⟨group⟩⟨sep⟩⟨logical⟩" where logical is one of the view's
// streams. Route order is deterministic (views sorted by name).
func (e *Engine) route(stream string) []route {
	if rts, ok := e.routes[stream]; ok {
		return rts
	}
	group, logical := "", ""
	if i := strings.Index(stream, e.opts.GroupSep); i > 0 {
		group, logical = stream[:i], stream[i+len(e.opts.GroupSep):]
	}
	names := make([]string, 0, len(e.views))
	for n := range e.views {
		names = append(names, n)
	}
	sort.Strings(names)
	rts := []route{}
	for _, n := range names {
		v := e.views[n]
		if v.spec.Grouped() {
			if logical != "" {
				if _, ok := v.streamSet[logical]; ok {
					rts = append(rts, route{v: v, group: group, logical: logical})
				}
			}
		} else if _, ok := v.streamSet[stream]; ok {
			rts = append(rts, route{v: v, group: "", logical: stream})
		}
	}
	e.routes[stream] = rts
	return rts
}

// target resolves one route to its group's ring, rotating it to now,
// touching group recency, and accounting evictions.
func (e *Engine) target(rt route, now time.Time) *Ring {
	st, evicted := rt.v.groups.Touch(rt.group, func() *Ring { return rt.v.newRing(e) })
	if len(evicted) > 0 {
		e.met.groupEvictions.Add(uint64(len(evicted)))
		rt.v.version++
		if e.log != nil {
			e.log.Debug("groups evicted", "view", rt.v.spec.Name, "evicted", len(evicted), "live", rt.v.groups.Len())
		}
	}
	e.rotate(rt.v, st.ring, now)
	return st.ring
}

// rotate advances one ring and accounts the change.
func (e *Engine) rotate(v *View, r *Ring, now time.Time) {
	rotations, evictions := r.RotateTo(now)
	if rotations > 0 {
		e.met.windowRotations.Add(uint64(rotations))
	}
	if evictions > 0 {
		e.met.windowEvictions.Add(uint64(evictions))
		v.version++ // window contents changed even without new updates
	}
}

// Observe routes one raw update into every interested view's current
// bucket. Streams no view reads cost one cache lookup.
func (e *Engine) Observe(stream string, elem uint64, delta int64) error {
	rts := e.route(stream)
	if len(rts) == 0 {
		return nil
	}
	now := e.opts.Now()
	for _, rt := range rts {
		if err := e.target(rt, now).Observe(rt.logical, elem, delta); err != nil {
			return err
		}
		rt.v.version++
		e.met.updates.Inc()
	}
	return nil
}

// ObserveDigest routes one digest-packed update (the WAL/ingest fast
// path: the hash bill was already paid once).
func (e *Engine) ObserveDigest(stream string, d core.Digest, delta int64) error {
	rts := e.route(stream)
	if len(rts) == 0 {
		return nil
	}
	now := e.opts.Now()
	for _, rt := range rts {
		if err := e.target(rt, now).ObserveDigest(rt.logical, d, delta); err != nil {
			return err
		}
		rt.v.version++
		e.met.updates.Inc()
	}
	return nil
}

// MergeDelta routes one site-sketched synopsis delta, merged by
// linearity into every interested view's current bucket.
func (e *Engine) MergeDelta(stream string, fam *core.Family) error {
	rts := e.route(stream)
	if len(rts) == 0 {
		return nil
	}
	now := e.opts.Now()
	for _, rt := range rts {
		if err := e.target(rt, now).MergeDelta(rt.logical, fam); err != nil {
			return err
		}
		rt.v.version++
		e.met.updates.Inc()
	}
	return nil
}

// RotateAll advances every windowed ring to now, evicting aged-out
// buckets — the coordinator's rotation tick, so idle views still
// age (and their watchers still see version changes).
func (e *Engine) RotateAll(now time.Time) {
	for _, v := range e.views {
		if !v.spec.Windowed() {
			continue
		}
		v.groups.each(func(st *groupState) { e.rotate(v, st.ring, now) })
	}
}

// GroupResult is one per-group evaluation of a view. The engine leaves
// Delta zero; the watch layer fills it for ISTREAM emission (signed
// change in the estimate since the group's last emitted round).
type GroupResult struct {
	Group string
	Est   core.Estimate
	Delta float64
	Err   string
}

// Evaluate estimates a view's expression for every live group, in
// sorted group order. It is read-only on engine state (rotation
// happens in the mutation/tick paths), so the embedder may run it
// under a read lock. Per-group errors (typically a group that has not
// yet seen every referenced stream) are reported in-band.
func (e *Engine) Evaluate(v *View, eps float64, opts core.EstimateOptions) []GroupResult {
	keys := v.groups.Keys()
	out := make([]GroupResult, 0, len(keys))
	for _, k := range keys {
		st := v.groups.Get(k)
		res := GroupResult{Group: k}
		fams, err := st.ring.Merged()
		if err == nil {
			// A referenced stream absent from the window is an empty
			// set — aged-out and never-seen are indistinguishable once
			// the bucket that held it is gone. Backfill into a copy:
			// Merged may alias live bucket state.
			missing := 0
			for _, name := range v.streams {
				if _, ok := fams[name]; !ok {
					missing++
				}
			}
			if missing > 0 {
				filled := make(map[string]*core.Family, len(fams)+missing)
				for name, f := range fams {
					filled[name] = f
				}
				for _, name := range v.streams {
					if _, ok := filled[name]; !ok {
						filled[name] = e.empty
					}
				}
				fams = filled
			}
		}
		if err == nil {
			res.Est, err = v.q.Estimate(fams, eps, true, opts)
		}
		if err != nil {
			res.Err = err.Error()
		}
		out = append(out, res)
	}
	return out
}

// Counts reports catalog-wide totals for the embedder's gauges:
// registered views, live (non-empty) window buckets, and live groups
// of grouped views.
func (e *Engine) Counts() (views, buckets, groups int) {
	views = len(e.views)
	for _, v := range e.views {
		v.groups.each(func(st *groupState) { buckets += st.ring.LiveBuckets() })
		if v.spec.Grouped() {
			groups += v.groups.Len()
		}
	}
	return views, buckets, groups
}
