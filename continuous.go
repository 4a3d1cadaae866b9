package setsketch

import (
	"fmt"
	"sync"

	"setsketch/internal/core"
	"setsketch/internal/expr"
)

// Continuous queries: the paper's architecture (Fig. 1) positions the
// stream processor as an *online* query answerer. A registered
// continuous query re-estimates its set expression after every
// `every`-th update that touches one of its streams and delivers the
// result to its callback — the push-based counterpart of calling
// Estimate by hand.

// ContinuousID identifies a registered continuous query.
type ContinuousID int

// continuousQuery is the registration record. The expression is
// compiled once here; every firing reuses the compiled query.
type continuousQuery struct {
	q       *core.Query
	streams map[string]struct{}
	eps     float64
	every   int64
	pending int64
	fn      func(Estimate, error)
}

// continuousState is lazily attached to a Processor.
type continuousState struct {
	mu      sync.Mutex
	nextID  ContinuousID
	queries map[ContinuousID]*continuousQuery
}

// RegisterContinuous registers a continuous query: after every `every`
// updates touching any stream the expression references, the
// expression is re-estimated with accuracy parameter eps and the
// result (or estimation error, e.g. ErrNoObservations early in the
// stream) is passed to fn.
//
// fn runs synchronously on the updating goroutine that crossed the
// threshold, so it must be fast and must not call back into the
// Processor's update path; hand results to a channel for heavy work.
func (p *Processor) RegisterContinuous(expression string, eps float64, every int, fn func(Estimate, error)) (ContinuousID, error) {
	if every < 1 {
		return 0, fmt.Errorf("setsketch: continuous query interval %d, need ≥ 1", every)
	}
	if fn == nil {
		return 0, fmt.Errorf("setsketch: continuous query needs a callback")
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("setsketch: relative accuracy ε = %v out of (0, 1)", eps)
	}
	node, err := expr.Parse(expression)
	if err != nil {
		return 0, err
	}
	q, err := core.CompileQuery(node)
	if err != nil {
		return 0, err
	}
	streams := make(map[string]struct{})
	for _, name := range expr.Streams(node) {
		streams[name] = struct{}{}
	}
	cs := p.continuous()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.nextID++
	id := cs.nextID
	cs.queries[id] = &continuousQuery{
		q: q, streams: streams, eps: eps, every: int64(every), fn: fn,
	}
	return id, nil
}

// UnregisterContinuous removes a continuous query; it reports whether
// the id was registered.
func (p *Processor) UnregisterContinuous(id ContinuousID) bool {
	cs := p.continuous()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	_, ok := cs.queries[id]
	delete(cs.queries, id)
	return ok
}

// ContinuousQueries returns the number of registered continuous
// queries.
func (p *Processor) ContinuousQueries() int {
	cs := p.continuous()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.queries)
}

// continuous returns the lazily-created continuous-query state.
func (p *Processor) continuous() *continuousState {
	p.contOnce.Do(func() {
		p.cont = &continuousState{queries: make(map[ContinuousID]*continuousQuery)}
	})
	return p.cont
}

// notifyContinuous advances the counters of queries referencing the
// updated stream and fires those whose interval elapsed. Called from
// Update after the synopsis write completes.
func (p *Processor) notifyContinuous(stream string) {
	// continuous() uses sync.Once, so this read is race-free even
	// against a concurrent first registration.
	cs := p.continuous()
	var due []*continuousQuery
	cs.mu.Lock()
	for _, q := range cs.queries {
		if _, ok := q.streams[stream]; !ok {
			continue
		}
		q.pending++
		if q.pending >= q.every {
			q.pending = 0
			due = append(due, q)
		}
	}
	cs.mu.Unlock()
	for _, q := range due {
		// Exclusive lock, like Estimate: a consistent read of every
		// counter even while other goroutines keep updating.
		p.mu.Lock()
		est, err := q.q.Estimate(p.fams, q.eps, true, core.EstimateOptions{})
		p.mu.Unlock()
		q.fn(fromCore(est), err)
	}
}
