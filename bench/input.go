package main

import (
	"fmt"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/expr"
	"setsketch/internal/hashing"
	"setsketch/internal/multiset"
)

const batchSize = 256 // updates per frame, the BENCH_*.json shape

// expressions are the five set expressions every round answers at the
// end (and query_mix rotates over while it runs).
var expressions = []string{"A | B", "A - B", "A & B", "(A | B) - C", "(A & B) - C"}

const (
	queryEps = 0.1
	// errTolerance bounds |estimate − exact| as a share of the exact
	// size of the union of the expression's streams: the paper's error
	// bounds for − and ∩ scale with the union, not with |E|. At r = 128
	// the error's standard deviation is 5–6% of the union (measured over
	// 60 seeds per workload, README.md), and the driver runs hundreds of
	// seeds, so the tolerance sits at six of those: it catches lost or
	// misrouted updates, not estimator noise.
	errTolerance = 0.35
)

// benchCoins are the stored coins of the common server shape
// (-copies 128 -s 32 -wise 8 -seed 1).
func benchCoins() distributed.Coins {
	cfg := core.DefaultConfig()
	cfg.SecondLevel = 32
	cfg.FirstWise = 8
	return distributed.Coins{Config: cfg, Seed: 1, Copies: 128}
}

// hotSpec is the BENCH_e2e.json traffic: Zipf(1.0) over 16,384
// elements, so the coordinator's 8,192-entry digest cache serves most
// updates. coldSpec draws uniformly from 2^20 elements, so neither the
// digest cache nor batch coalescing ever helps.
var (
	hotSpec  = datagen.LoadSpec{Streams: []string{"A", "B", "C"}, Support: 1 << 14, Theta: 1.0, Deletes: 0.1}
	coldSpec = datagen.LoadSpec{Streams: []string{"A", "B", "C"}, Support: 1 << 20, Theta: 0, Deletes: 0.1}
)

// exact is the ground truth for one expression on one input.
type exact struct {
	size  int // |E|
	union int // |∪ of the streams E names|
}

// input is one workload's pre-generated traffic: warm batches are
// acked before any clock starts, batches are the measured fixed work.
// Every round of a run sends exactly these, in this order.
type input struct {
	all     [][]datagen.Update // warm followed by batches: everything a measured server sees
	warm    [][]datagen.Update
	batches [][]datagen.Update
	exact   map[string]exact // ground truth after all
}

// updates counts the updates in bs.
func updates(bs [][]datagen.Update) int {
	n := 0
	for _, b := range bs {
		n += len(b)
	}
	return n
}

// genInput draws warm+n batches from spec — a deterministic function
// of seed — and computes the exact answer to every expression on them
// with internal/multiset and expr.EvalSet.
func genInput(spec datagen.LoadSpec, seed uint64, warm, n int) (*input, error) {
	g, err := datagen.NewLoadGen(spec, hashing.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	all := make([][]datagen.Update, warm+n)
	sets := map[string]*multiset.Multiset{}
	for _, s := range spec.Streams {
		sets[s] = multiset.New()
	}
	for i := range all {
		all[i] = g.Updates(batchSize)
		for _, u := range all[i] {
			if err := sets[u.Stream].Update(u.Elem, u.Delta); err != nil {
				return nil, fmt.Errorf("generated an illegal update: %w", err)
			}
		}
	}
	in := &input{all: all, warm: all[:warm], batches: all[warm:], exact: map[string]exact{}}
	support := map[string]multiset.Set{}
	for s, m := range sets {
		support[s] = m.Support()
	}
	for _, e := range expressions {
		node, err := expr.Parse(e)
		if err != nil {
			return nil, err
		}
		union := multiset.Set{}
		for _, s := range expr.Streams(node) {
			union = multiset.Union(union, support[s])
		}
		in.exact[e] = exact{size: len(node.EvalSet(support)), union: len(union)}
	}
	return in, nil
}
