package setsketch

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"setsketch/internal/core"
	"setsketch/internal/expr"
)

// InsertOnlyProcessor is the bit-cell variant of Processor for
// insert-only workloads — the representation the paper's own
// experiments use (§5.2: "simple bits instead of counters"). Each
// sketch cell is one bit, where a counter sketch stores s+1 8-byte
// counters per bucket (≈33× the memory at s = 32), and estimates are identical to what a Processor computes
// over the same stream and seed. The trade-off is fundamental, not an
// implementation detail: bits saturate, so deletions are impossible —
// use Processor for general update streams.
//
// This mode fits the paper's query-optimization motivation (§1):
// estimating UNION / INTERSECT / EXCEPT result cardinalities over
// large stored tables, where data is scanned once and never deleted
// mid-scan.
type InsertOnlyProcessor struct {
	opts Options
	cfg  core.Config

	mu   sync.RWMutex
	fams map[string]*core.BitFamily
}

// ErrInsertOnly is returned when a deletion is applied to an
// InsertOnlyProcessor.
var ErrInsertOnly = errors.New("setsketch: insert-only processor cannot apply deletions; use Processor")

// NewInsertOnlyProcessor creates an insert-only processor. A zero
// Options value selects DefaultOptions.
func NewInsertOnlyProcessor(opts Options) (*InsertOnlyProcessor, error) {
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
	return &InsertOnlyProcessor{opts: opts, cfg: cfg, fams: make(map[string]*core.BitFamily)}, nil
}

// Options returns the processor's configuration.
func (p *InsertOnlyProcessor) Options() Options { return p.opts }

// family returns (creating if needed) the synopsis for a stream.
// Callers must hold no lock.
func (p *InsertOnlyProcessor) family(stream string) (*core.BitFamily, error) {
	p.mu.RLock()
	f, ok := p.fams[stream]
	p.mu.RUnlock()
	if ok {
		return f, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok = p.fams[stream]; ok {
		return f, nil
	}
	f, err := core.NewBitFamily(p.cfg, p.opts.Seed, p.opts.Copies)
	if err != nil {
		return nil, err
	}
	p.fams[stream] = f
	return f, nil
}

// Insert records one occurrence of elem in the stream. Multiplicities
// are irrelevant for distinct counting, so repeated inserts are
// harmless (and cheap — bits saturate).
//
// Inserts to the same stream must be externally serialized (bit writes
// are not atomic); inserts to different streams, and inserts concurrent
// with estimation, are safe.
func (p *InsertOnlyProcessor) Insert(stream string, elem uint64) error {
	f, err := p.family(stream)
	if err != nil {
		return err
	}
	p.mu.RLock()
	f.Insert(elem)
	p.mu.RUnlock()
	return nil
}

// Update accepts only positive deltas; negative deltas return
// ErrInsertOnly.
func (p *InsertOnlyProcessor) Update(stream string, elem uint64, delta int64) error {
	if delta < 0 {
		return ErrInsertOnly
	}
	if delta == 0 {
		return nil
	}
	return p.Insert(stream, elem)
}

// Delete always fails with ErrInsertOnly.
func (p *InsertOnlyProcessor) Delete(string, uint64) error { return ErrInsertOnly }

// Streams returns the names of all streams seen so far, sorted.
func (p *InsertOnlyProcessor) Streams() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.fams))
	for name := range p.fams {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Estimate estimates |E| for a set expression; see Processor.Estimate
// for the grammar and semantics.
func (p *InsertOnlyProcessor) Estimate(expression string, eps float64) (Estimate, error) {
	node, err := expr.Parse(expression)
	if err != nil {
		return Estimate{}, err
	}
	q, err := core.CompileQuery(node)
	if err != nil {
		return Estimate{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	est, err := q.EstimateBits(p.fams, eps, true, core.EstimateOptions{})
	return fromCore(est), err
}

// EstimateUnion estimates |∪ streams| with the specialized Fig. 5
// estimator.
func (p *InsertOnlyProcessor) EstimateUnion(streams []string, eps float64) (Estimate, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fams := make([]*core.BitFamily, 0, len(streams))
	for _, name := range streams {
		f, ok := p.fams[name]
		if !ok {
			return Estimate{}, fmt.Errorf("setsketch: unknown stream %q", name)
		}
		fams = append(fams, f)
	}
	est, err := core.EstimateUnionBits(fams, eps, false)
	return fromCore(est), err
}

// EstimateDistinct estimates the number of distinct elements of one
// stream.
func (p *InsertOnlyProcessor) EstimateDistinct(stream string, eps float64) (Estimate, error) {
	return p.EstimateUnion([]string{stream}, eps)
}

// Snapshot serializes the synopsis of one stream.
func (p *InsertOnlyProcessor) Snapshot(stream string, w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.fams[stream]
	if !ok {
		return fmt.Errorf("setsketch: unknown stream %q", stream)
	}
	_, err := f.WriteTo(w)
	return err
}

// Restore merges a snapshot into the named stream (bitwise OR — the
// synopsis of the union of the two insert streams).
func (p *InsertOnlyProcessor) Restore(stream string, r io.Reader) error {
	in, err := core.ReadBitFamily(r)
	if err != nil {
		return err
	}
	f, err := p.family(stream)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return f.Merge(in)
}

// MemoryBytes reports the total synopsis footprint across all streams.
func (p *InsertOnlyProcessor) MemoryBytes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var n int
	for _, f := range p.fams {
		n += f.MemoryBytes()
	}
	return n
}
