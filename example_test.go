package setsketch_test

import (
	"fmt"
	"log"

	"setsketch"
)

// The basic workflow: stream updates in, ask for set-expression
// cardinalities at any time.
func Example() {
	p, err := setsketch.NewProcessor(setsketch.Options{
		Copies: 256, SecondLevel: 16, FirstWise: 8, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Streams A = {0..999}, B = {500..1499}; then delete 500..599
	// from B again, so A ∩ B = {600..999}.
	for e := uint64(0); e < 1000; e++ {
		p.Insert("A", e)
		p.Insert("B", e+500)
	}
	for e := uint64(500); e < 600; e++ {
		p.Delete("B", e)
	}
	est, err := p.Estimate("A & B", 0.2)
	if err != nil {
		log.Fatal(err)
	}
	// True cardinality is 400; the estimate is randomized but tight.
	fmt.Println(est.Value > 200 && est.Value < 600)
	// Output: true
}

// Deletion invariance: a stream with churn and its net-equivalent
// stream yield the identical synopsis, hence identical estimates.
func Example_deletionInvariance() {
	opts := setsketch.Options{Copies: 64, SecondLevel: 16, FirstWise: 8, Seed: 7}
	churned, _ := setsketch.NewProcessor(opts)
	clean, _ := setsketch.NewProcessor(opts)
	for e := uint64(0); e < 500; e++ {
		churned.Insert("S", e)
		clean.Insert("S", e)
		// Phantom traffic through the churned processor only.
		churned.Update("S", e+10000, 3)
		churned.Update("S", e+10000, -3)
	}
	a, _ := churned.EstimateDistinct("S", 0.2)
	b, _ := clean.EstimateDistinct("S", 0.2)
	fmt.Println(a.Value == b.Value)
	// Output: true
}

// Insert-only workloads can use bit-cell synopses (≈33× less memory,
// identical estimates, no deletions) — the representation the paper's
// own experiments use.
func ExampleInsertOnlyProcessor() {
	opts := setsketch.Options{Copies: 128, SecondLevel: 16, FirstWise: 8, Seed: 5}
	bits, _ := setsketch.NewInsertOnlyProcessor(opts)
	counters, _ := setsketch.NewProcessor(opts)
	for e := uint64(0); e < 3000; e++ {
		bits.Insert("T", e)
		counters.Insert("T", e)
	}
	a, _ := bits.Estimate("T", 0.2)
	b, _ := counters.Estimate("T", 0.2)
	fmt.Println(a.Value == b.Value)
	fmt.Println(counters.MemoryBytes()/bits.MemoryBytes() > 30)
	// Output:
	// true
	// true
}

// Validate checks expression syntax without touching any synopsis.
func ExampleValidate() {
	fmt.Println(setsketch.Validate("(R1 & R2) - R3"))
	err := setsketch.Validate("R1 & & R2")
	fmt.Println(err != nil)
	// Output:
	// <nil>
	// true
}
