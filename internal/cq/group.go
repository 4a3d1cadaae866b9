package cq

import (
	"container/list"
	"sort"
)

// Groups is the bounded keyed state of one windowed view: group key →
// Ring, with least-recently-updated eviction once the table exceeds
// its cap.
// Recency is update recency, not read recency — evaluation sweeps
// every group each round and must not refresh anything.
//
// Eviction drops the whole group's sketch state; a key that reappears
// starts from empty. That makes grouped estimates exact only for keys
// that stayed under the cap's protection — the documented trade for a
// hard memory bound (see QUERIES.md "Group eviction").
type Groups struct {
	max   int        // 0 = unbounded (the implicit group of ungrouped views)
	order *list.List // front = most recently updated
	m     map[string]*list.Element
}

// groupState is one group's entry: its key and windowed sketch state.
type groupState struct {
	key  string
	ring *Ring
}

// newGroups creates a table evicting past max live groups (0 =
// unbounded).
func newGroups(max int) *Groups {
	return &Groups{max: max, order: list.New(), m: make(map[string]*list.Element)}
}

// Touch returns the group's state, creating it via mk on first use and
// marking it most-recently-updated. When creation pushes the table
// past its cap, the least-recently-updated groups are dropped and
// their keys returned.
func (g *Groups) Touch(key string, mk func() *Ring) (*groupState, []string) {
	if el, ok := g.m[key]; ok {
		g.order.MoveToFront(el)
		return el.Value.(*groupState), nil
	}
	st := &groupState{key: key, ring: mk()}
	g.m[key] = g.order.PushFront(st)
	var evicted []string
	for g.max > 0 && g.order.Len() > g.max {
		back := g.order.Back()
		old := back.Value.(*groupState)
		g.order.Remove(back)
		delete(g.m, old.key)
		evicted = append(evicted, old.key)
	}
	return st, evicted
}

// Get returns a group's state without touching recency, or nil.
func (g *Groups) Get(key string) *groupState {
	if el, ok := g.m[key]; ok {
		return el.Value.(*groupState)
	}
	return nil
}

// Len reports how many groups are live.
func (g *Groups) Len() int { return g.order.Len() }

// Keys returns the live group keys, sorted, so evaluation and
// delivery order are deterministic.
func (g *Groups) Keys() []string {
	out := make([]string, 0, len(g.m))
	for k := range g.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// each calls fn for every live group.
func (g *Groups) each(fn func(*groupState)) {
	for el := g.order.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*groupState))
	}
}
