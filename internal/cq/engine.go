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
	// MaxGroups bounds the live groups of each windowed grouped view;
	// past it the least-recently-updated group is evicted. 0 selects
	// the default (4096); negative disables the bound. All-time groups
	// hold no state of their own, so nothing bounds them.
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
			"Stream updates routed into windowed-view ring state."),
		windowRotations: reg.Counter("cq_window_rotations_total",
			"Window ring bucket advances across all views and groups."),
		windowEvictions: reg.Counter("cq_window_evictions_total",
			"Non-empty window buckets dropped after falling out of their window (exact eviction by linearity)."),
		groupEvictions: reg.Counter("cq_group_evictions_total",
			"Group sketch states evicted by the bounded per-view group table (least-recently-updated first)."),
	}
}

// Engine holds the continuous-view catalog and the ring state of
// windowed views. An all-time view holds no state: the linear synopsis
// of a stream's whole history is the embedder's own family for it, so
// EvaluateFamilies reads those. The engine does no locking: the
// embedding coordinator calls every mutating method (Register, Drop,
// ObserveDigest, MergeDelta, RotateAll) under its view write lock and
// the read-only ones (Evaluate, Specs, counters) under at least a read
// lock.
type Engine struct {
	opts Options
	met  engineMetrics
	log  *obs.Logger

	views map[string]*View
	// routes caches physical stream → windowed observation targets;
	// rebuilt lazily after any Register/Drop. Its keys mirror the
	// coordinator's stream map, so it is bounded by the same
	// cardinality.
	routes map[string][]route
	// empty backs the missing-stream backfill: a referenced stream with
	// no state is an empty set, not an error (after eviction, or before
	// a group's first update to it, the two are indistinguishable).
	// Estimation is read-only, so one shared instance serves every view.
	empty *core.Family
}

// route is one resolved observation target: updates to a physical
// stream feed windowed view v's group as logical stream logical.
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
// and, when windowed, keyed ring state. spec, q and the stream lists
// never change after Register; groups and version are engine-lock-domain
// state.
type View struct {
	spec      ViewSpec
	q         *core.Query
	streams   []string // sorted logical streams the expression reads
	streamSet map[string]struct{}
	groups    *Groups // stays empty for all-time views
	// version stamps content-visible changes of a windowed view
	// (observations, non-empty evictions, group evictions) so watchers
	// can skip rounds whose window contents cannot have changed.
	version uint64
}

// Spec returns the view's definition.
func (v *View) Spec() ViewSpec { return v.spec }

// Version returns the view's change stamp.
func (v *View) Version() uint64 { return v.version }

// Streams returns the logical streams the view's expression reads.
func (v *View) Streams() []string { return append([]string(nil), v.streams...) }

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
	if spec.Windowed() && !spec.Grouped() {
		// Eager implicit group so evaluation always yields one result
		// row (estimate 0 before any update), never an empty set of
		// groups.
		v.groups.Touch("", func() *Ring { return NewRing(spec, e.opts.Now(), e.opts.NewFamily) })
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

// match reports which group of view v a physical stream feeds, and as
// which logical stream. Ungrouped views match the stream name exactly;
// grouped views match "⟨group⟩⟨sep⟩⟨logical⟩" where logical is one of
// the view's streams. It is the one split rule of windowed routing and
// all-time group enumeration.
func (e *Engine) match(v *View, stream string) (group, logical string, ok bool) {
	if !v.spec.Grouped() {
		_, ok = v.streamSet[stream]
		return "", stream, ok
	}
	i := strings.Index(stream, e.opts.GroupSep)
	if i <= 0 {
		return "", "", false
	}
	group, logical = stream[:i], stream[i+len(e.opts.GroupSep):]
	_, ok = v.streamSet[logical]
	return group, logical, ok
}

// route resolves a physical stream's windowed observation targets,
// caching the answer. Route order is deterministic (views sorted by
// name). All-time views are never targets: they read the embedder's
// families instead.
func (e *Engine) route(stream string) []route {
	if rts, ok := e.routes[stream]; ok {
		return rts
	}
	names := make([]string, 0, len(e.views))
	for n, v := range e.views {
		if v.spec.Windowed() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	rts := []route{}
	for _, n := range names {
		v := e.views[n]
		if group, logical, ok := e.match(v, stream); ok {
			rts = append(rts, route{v: v, group: group, logical: logical})
		}
	}
	e.routes[stream] = rts
	return rts
}

// target resolves one route to its group's ring, rotating it to now,
// touching group recency, and accounting evictions.
func (e *Engine) target(rt route, now time.Time) *Ring {
	st, evicted := rt.v.groups.Touch(rt.group, func() *Ring { return NewRing(rt.v.spec, e.opts.Now(), e.opts.NewFamily) })
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

// ObserveDigest routes one digest-packed update into every interested
// windowed view's current bucket (the hash bill was already paid
// once). Streams no windowed view reads cost one cache lookup.
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
// linearity into every interested windowed view's current bucket.
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

// Evaluate estimates a windowed view's expression for every live
// group, in sorted group order; an all-time view has no live groups
// here (see EvaluateFamilies). It is read-only on engine state
// (rotation happens in the mutation/tick paths), so the embedder may
// run it under a read lock. Per-group errors are reported in-band.
func (e *Engine) Evaluate(v *View, eps float64, opts core.EstimateOptions) []GroupResult {
	keys := v.groups.Keys()
	out := make([]GroupResult, 0, len(keys))
	for _, k := range keys {
		fams, err := v.groups.Get(k).ring.Merged()
		if err != nil {
			out = append(out, GroupResult{Group: k, Err: err.Error()})
			continue
		}
		out = append(out, e.estimate(v, k, fams, eps, opts))
	}
	return out
}

// EvaluateFamilies estimates an all-time view over the embedder's
// stream families, keyed by physical stream name — the synopses of
// every update each stream has seen. An ungrouped view yields one
// result; a grouped view yields one per group that has a stream the
// view reads, in sorted group order. It reads only state that never
// changes after Register, so the embedder may call it without the
// engine lock, holding whatever keeps fams stable.
func (e *Engine) EvaluateFamilies(v *View, fams map[string]*core.Family, eps float64, opts core.EstimateOptions) []GroupResult {
	if !v.spec.Grouped() {
		return []GroupResult{e.estimate(v, "", fams, eps, opts)}
	}
	groups := make(map[string]map[string]*core.Family)
	for name, f := range fams {
		if group, logical, ok := e.match(v, name); ok {
			if groups[group] == nil {
				groups[group] = make(map[string]*core.Family, len(v.streams))
			}
			groups[group][logical] = f
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]GroupResult, 0, len(keys))
	for _, k := range keys {
		out = append(out, e.estimate(v, k, groups[k], eps, opts))
	}
	return out
}

// estimate is the one evaluation body of a view group, windowed or
// all-time: a referenced stream absent from fams is backfilled as the
// empty set, then the view's compiled query runs. The backfill goes
// into a new map, because fams may be live state.
func (e *Engine) estimate(v *View, group string, fams map[string]*core.Family, eps float64, opts core.EstimateOptions) GroupResult {
	for _, name := range v.streams {
		if fams[name] == nil {
			filled := make(map[string]*core.Family, len(v.streams))
			for _, name := range v.streams {
				if filled[name] = fams[name]; filled[name] == nil {
					filled[name] = e.empty
				}
			}
			fams = filled
			break
		}
	}
	est, err := v.q.Estimate(fams, eps, true, opts)
	res := GroupResult{Group: group, Est: est}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// Counts reports catalog-wide totals for the embedder's gauges:
// registered views, live (non-empty) window buckets, and live groups
// of windowed grouped views.
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
