// Package setsketch estimates the cardinality of set expressions —
// union, intersection, and difference over any number of streams —
// from continuous update streams (insertions *and* deletions), in one
// pass and small space. It is a from-scratch implementation of
// Ganguly, Garofalakis, and Rastogi, "Processing Set Expressions over
// Continuous Update Streams" (SIGMOD 2003), built on their 2-level
// hash sketch synopsis.
//
// The entry point is the Processor, the stream query-processing engine
// of the paper's Figure 1: feed it update triples ⟨stream, element, ±v⟩
// as they arrive, then ask for (ε, δ)-style estimates of any set
// expression over the streams at any time:
//
//	p, _ := setsketch.NewProcessor(setsketch.DefaultOptions())
//	p.Insert("R1", srcAddr)     // e.g. IP sources seen at router R1
//	p.Delete("R1", expiredAddr) // deletions are first-class
//	est, _ := p.Estimate("(R1 & R2) - R3", 0.1)
//	fmt.Println(est.Value)
//
// Estimates never require rescanning past stream items, no matter how
// many deletions occur: the underlying synopsis is linear, so a
// deletion exactly cancels its insertion. Linearity also makes
// synopses mergeable — see Snapshot/Restore and MergeFrom for the
// distributed collection model, where each site summarizes its local
// streams and a coordinator combines them.
package setsketch

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"setsketch/internal/core"
	"setsketch/internal/expr"
)

// Options configures a Processor.
type Options struct {
	// Copies is the number of independent sketch copies r per stream.
	// Estimation error shrinks roughly as 1/√r; the paper's
	// experiments reach ≈10% relative error at 512 copies for
	// expression sizes down to 1/32 of the union. Default 512.
	Copies int

	// SecondLevel is the number s of second-level hash functions per
	// sketch; each singleton test errs with probability 2^−s.
	// Default 32 (the paper's experimental setting).
	SecondLevel int

	// FirstWise is the independence degree of the first-level hash
	// family (the paper's §3.6 requires Θ(log 1/ε)). Default 8.
	FirstWise int

	// Seed derives all hash functions. Processors that should exchange
	// or merge snapshots (distributed sites) must share a Seed — the
	// "stored coins" of the distributed-streams model. Default 1.
	Seed uint64
}

// DefaultOptions returns the configuration used in the paper's
// experimental study: 512 copies, 32 second-level functions.
func DefaultOptions() Options {
	return Options{Copies: 512, SecondLevel: 32, FirstWise: 8, Seed: 1}
}

// Estimate is a cardinality estimate with diagnostics.
type Estimate struct {
	// Value is the estimated number of distinct elements with positive
	// net frequency in the expression result.
	Value float64
	// Level is the first-level sketch bucket the estimate was read from.
	Level int
	// Copies is the number of sketch copies consulted.
	Copies int
	// Valid is the number of copies that yielded a usable 0/1 witness
	// observation (equals Copies for plain union estimates).
	Valid int
	// Witnesses is the number of positive witness observations.
	Witnesses int
	// Union is the union-cardinality estimate the witness estimators
	// scaled by (0 for plain union estimates).
	Union float64
	// StdError is an approximate standard error of Value (0 when the
	// estimator cannot compute one). It is an indicator for sizing
	// Copies, not a guarantee: multi-level witness observations are
	// mildly correlated, which this bar does not model.
	StdError float64
}

func fromCore(e core.Estimate) Estimate {
	return Estimate{Value: e.Value, Level: e.Level, Copies: e.Copies,
		Valid: e.Valid, Witnesses: e.Witnesses, Union: e.Union, StdError: e.StdError}
}

// Processor maintains 2-level hash sketch synopses for a collection of
// named update streams and answers set-expression cardinality queries
// over them. It is safe for concurrent use; updates to different
// streams proceed in parallel.
//
// Locking protocol: updates hold mu.RLock (shared) plus their stream's
// mutex, so updates to different streams run concurrently; estimation
// and other whole-state reads hold mu.Lock (exclusive), so they see a
// consistent snapshot of every counter.
type Processor struct {
	opts Options
	cfg  core.Config

	mu    sync.RWMutex
	fams  map[string]*core.Family
	locks map[string]*sync.Mutex

	// Continuous-query state (see continuous.go), created on first
	// registration.
	contOnce sync.Once
	cont     *continuousState
}

// NewProcessor creates a Processor. Invalid options are reported
// immediately rather than at first use.
func NewProcessor(opts Options) (*Processor, error) {
	if opts.Copies == 0 && opts.SecondLevel == 0 && opts.FirstWise == 0 && opts.Seed == 0 {
		opts = DefaultOptions()
	}
	cfg := core.Config{
		Buckets:     core.DefaultConfig().Buckets,
		SecondLevel: opts.SecondLevel,
		FirstWise:   opts.FirstWise,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Copies < 1 {
		return nil, fmt.Errorf("setsketch: Copies = %d, need at least 1", opts.Copies)
	}
	return &Processor{
		opts:  opts,
		cfg:   cfg,
		fams:  make(map[string]*core.Family),
		locks: make(map[string]*sync.Mutex),
	}, nil
}

// Options returns the processor's configuration.
func (p *Processor) Options() Options { return p.opts }

// family returns (creating if needed) the synopsis and its update lock
// for a stream.
func (p *Processor) family(stream string) (*core.Family, *sync.Mutex, error) {
	p.mu.RLock()
	f, ok := p.fams[stream]
	l := p.locks[stream]
	p.mu.RUnlock()
	if ok {
		return f, l, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok = p.fams[stream]; ok {
		return f, p.locks[stream], nil
	}
	f, err := core.NewFamily(p.cfg, p.opts.Seed, p.opts.Copies)
	if err != nil {
		return nil, nil, err
	}
	l = new(sync.Mutex)
	p.fams[stream] = f
	p.locks[stream] = l
	return f, l, nil
}

// Update applies the stream update ⟨stream, elem, ±delta⟩: delta > 0
// inserts that many copies of elem, delta < 0 deletes them. Deletions
// must be legal (never drive an element's net frequency negative);
// this is the paper's stream model and is not checked here — the
// synopsis is too small to know net frequencies, which is the point.
func (p *Processor) Update(stream string, elem uint64, delta int64) error {
	if delta == 0 {
		return nil
	}
	f, l, err := p.family(stream)
	if err != nil {
		return err
	}
	// Shared lock on mu: excludes whole-state readers (Estimate) while
	// letting updates to other streams proceed under their own locks.
	p.mu.RLock()
	l.Lock()
	f.Update(elem, delta)
	l.Unlock()
	p.mu.RUnlock()
	p.notifyContinuous(stream)
	return nil
}

// Insert is Update(stream, elem, +1).
func (p *Processor) Insert(stream string, elem uint64) error {
	return p.Update(stream, elem, 1)
}

// Delete is Update(stream, elem, −1).
func (p *Processor) Delete(stream string, elem uint64) error {
	return p.Update(stream, elem, -1)
}

// Streams returns the names of all streams seen so far, sorted.
func (p *Processor) Streams() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.fams))
	for name := range p.fams {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Estimate estimates the cardinality of a set expression over the
// processor's streams with relative-accuracy parameter eps ∈ (0, 1).
// The expression grammar accepts '|', '∪', '+' or UNION; '&', '∩' or
// INTERSECT; '-', '−' or EXCEPT; identifiers; and parentheses, with
// intersection/difference binding tighter than union:
//
//	est, err := p.Estimate("(R1 & R2) - R3", 0.1)
//
// Estimation never touches past stream items; it reads only the
// maintained synopses. ErrNoObservations is returned when no sketch
// copy produced a witness observation (raise Copies, or accept that
// |E| is too small relative to the union to resolve in this space).
func (p *Processor) Estimate(expression string, eps float64) (Estimate, error) {
	return p.estimate(expression, eps, true)
}

// EstimateSingleLevel is Estimate using the single-level witness scheme
// exactly as the paper's Fig. 6 / §4 pseudo-code reads it (witnesses
// are drawn from one chosen first-level bucket per sketch copy). The
// default Estimate harvests witnesses from every level, which has the
// same expectation but roughly 15× the valid observations per sketch —
// see EXPERIMENTS.md. This variant exists for fidelity comparisons.
func (p *Processor) EstimateSingleLevel(expression string, eps float64) (Estimate, error) {
	return p.estimate(expression, eps, false)
}

// estimate parses and compiles the expression and runs the query
// kernel over the processor's families.
func (p *Processor) estimate(expression string, eps float64, multiLevel bool) (Estimate, error) {
	node, err := expr.Parse(expression)
	if err != nil {
		return Estimate{}, err
	}
	q, err := core.CompileQuery(node)
	if err != nil {
		return Estimate{}, err
	}
	// Exclusive lock: estimation reads every stream's counters and must
	// not observe updates mid-flight (updates hold mu.RLock).
	p.mu.Lock()
	defer p.mu.Unlock()
	est, err := q.Estimate(p.fams, eps, multiLevel, core.EstimateOptions{})
	return fromCore(est), err
}

// EstimateUnion estimates |∪ streams| with the paper's specialized
// single-level estimator (Fig. 5), kept for fidelity. Estimate with a
// union expression ("A | B") is usually tighter: it scales by the
// all-levels maximum-likelihood union estimate, which reads the whole
// occupancy profile instead of one level.
func (p *Processor) EstimateUnion(streams []string, eps float64) (Estimate, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fams := make([]*core.Family, 0, len(streams))
	for _, name := range streams {
		f, ok := p.fams[name]
		if !ok {
			return Estimate{}, fmt.Errorf("setsketch: unknown stream %q", name)
		}
		fams = append(fams, f)
	}
	est, err := core.EstimateUnion(fams, eps, false)
	return fromCore(est), err
}

// EstimateDistinct estimates the number of distinct live elements of
// one stream.
func (p *Processor) EstimateDistinct(stream string, eps float64) (Estimate, error) {
	return p.EstimateUnion([]string{stream}, eps)
}

// ErrNoObservations is returned when an estimate could not be formed
// from any sketch copy; see Processor.Estimate.
var ErrNoObservations = core.ErrNoObservations

// Validate parses an expression and reports grammar errors without
// estimating anything.
func Validate(expression string) error {
	_, err := expr.Parse(expression)
	return err
}

// Analysis is the result of static expression analysis.
type Analysis struct {
	// Canonical is the fully-parenthesized normal form of the
	// expression.
	Canonical string
	// Streams are the distinct stream names referenced, sorted.
	Streams []string
	// Empty reports that the expression denotes ∅ for every input
	// (e.g. A - A): estimating it is pointless.
	Empty bool
	// Universe reports that the expression equals the union of its
	// streams for every input (e.g. A | (B - A)): the specialized
	// union estimator (better constants) can serve the query.
	Universe bool
}

// Analyze parses and statically analyzes an expression: it computes
// the canonical form, the referenced streams, and whether the
// expression is degenerate (always empty, or always the full union).
// Analysis is exact — it decides semantic properties by truth-table
// enumeration over the expression's streams (limited to 20 streams).
func Analyze(expression string) (Analysis, error) {
	node, err := expr.Parse(expression)
	if err != nil {
		return Analysis{}, err
	}
	empty, err := expr.IsEmpty(node)
	if err != nil {
		return Analysis{}, err
	}
	universe, err := expr.IsUniverse(node)
	if err != nil {
		return Analysis{}, err
	}
	return Analysis{
		Canonical: node.String(),
		Streams:   expr.Streams(node),
		Empty:     empty,
		Universe:  universe,
	}, nil
}

// Equivalent reports whether two expressions denote the same set for
// every possible input, e.g. "A - (B | C)" and "(A - B) & (A - C)".
func Equivalent(expr1, expr2 string) (bool, error) {
	n1, err := expr.Parse(expr1)
	if err != nil {
		return false, err
	}
	n2, err := expr.Parse(expr2)
	if err != nil {
		return false, err
	}
	return expr.Equivalent(n1, n2)
}

// Snapshot serializes the synopsis of one stream. Snapshots are
// deterministic, checksummed, and independent of future updates.
func (p *Processor) Snapshot(stream string, w io.Writer) error {
	p.mu.RLock()
	f, ok := p.fams[stream]
	l := p.locks[stream]
	p.mu.RUnlock()
	if !ok {
		return fmt.Errorf("setsketch: unknown stream %q", stream)
	}
	p.mu.RLock()
	l.Lock()
	clone := f.Clone()
	l.Unlock()
	p.mu.RUnlock()
	_, err := clone.WriteTo(w)
	return err
}

// Restore merges a snapshot (written by Snapshot, possibly by another
// Processor sharing the same Options) into the named stream. Restoring
// sub-stream snapshots from several sites yields exactly the synopsis
// of the combined stream.
func (p *Processor) Restore(stream string, r io.Reader) error {
	in, err := core.ReadFamily(r)
	if err != nil {
		return err
	}
	f, l, err := p.family(stream)
	if err != nil {
		return err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	l.Lock()
	defer l.Unlock()
	return f.Merge(in)
}

// MergeFrom merges every stream synopsis of another Processor into
// this one. Both processors must share Options (stored coins).
func (p *Processor) MergeFrom(other *Processor) error {
	if p.opts != other.opts {
		return fmt.Errorf("setsketch: merging processors with different options")
	}
	other.mu.RLock()
	names := make([]string, 0, len(other.fams))
	for name := range other.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	snaps := make(map[string]*core.Family, len(names))
	for _, name := range names {
		snaps[name] = other.fams[name].Clone()
	}
	other.mu.RUnlock()
	for _, name := range names {
		f, l, err := p.family(name)
		if err != nil {
			return err
		}
		p.mu.RLock()
		l.Lock()
		err = f.Merge(snaps[name])
		l.Unlock()
		p.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// DropStream discards the synopsis of a stream, freeing its memory.
// It reports whether the stream existed.
func (p *Processor) DropStream(stream string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.fams[stream]
	delete(p.fams, stream)
	delete(p.locks, stream)
	return ok
}

// ResetStream zeroes the synopsis of a stream (as if the stream had
// delivered no updates) while keeping its hash functions, so future
// snapshots remain mergeable. It reports whether the stream existed.
func (p *Processor) ResetStream(stream string) bool {
	p.mu.RLock()
	f, ok := p.fams[stream]
	l := p.locks[stream]
	p.mu.RUnlock()
	if !ok {
		return false
	}
	p.mu.RLock()
	l.Lock()
	f.Reset()
	l.Unlock()
	p.mu.RUnlock()
	return true
}

// MemoryBytes reports the total synopsis footprint across all streams.
func (p *Processor) MemoryBytes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var n int
	for _, f := range p.fams {
		n += f.MemoryBytes()
	}
	return n
}

// RecommendedCopies returns the copy count for an (ε, δ) union
// estimate; see the package documentation for how witness-based
// estimates additionally scale with |∪A_i|/|E|.
func RecommendedCopies(eps, delta float64) int {
	return core.RecommendedCopies(eps, delta)
}
