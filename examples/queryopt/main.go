// Query-optimizer cardinality estimation: the paper's SQL motivation
// (§1). The SQL standard's UNION / INTERSECT / EXCEPT operators need
// result-cardinality estimates during plan costing; for large tables a
// single scan that maintains 2-level hash sketches answers them all.
//
// Tables never see deletions mid-scan, so this example uses the
// insert-only bit-cell representation — the one the paper's own
// experiments use (§5.2) — at about 1/33 the memory of counter sketches
// with identical estimates.
//
// Run with: go run ./examples/queryopt
package main

import (
	"fmt"
	"log"
	"math/rand"

	"setsketch"
)

func main() {
	p, err := setsketch.NewInsertOnlyProcessor(setsketch.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2003))

	// Three "tables" of customer ids, as a warehouse might hold them:
	// orders_2024, orders_2025, and churned (closed accounts).
	// Simulate the one scan per table a DBMS statistics job would run.
	exact := map[string]map[uint64]bool{
		"orders_2024": {}, "orders_2025": {}, "churned": {},
	}
	insert := func(table string, id uint64) {
		if exact[table][id] {
			return
		}
		exact[table][id] = true
		if err := p.Insert(table, id); err != nil {
			log.Fatal(err)
		}
	}
	const customers = 80000
	for i := 0; i < 60000; i++ {
		insert("orders_2024", uint64(rng.Intn(customers)))
	}
	for i := 0; i < 60000; i++ {
		// 2025 skews to a shifted customer range: partial overlap.
		insert("orders_2025", uint64(rng.Intn(customers)/2+customers/3))
	}
	for i := 0; i < 8000; i++ {
		insert("churned", uint64(rng.Intn(customers)))
	}

	// The queries a costing pass would ask before picking a plan.
	queries := []struct {
		sql  string
		expr string
	}{
		{"2024 INTERSECT 2025", "orders_2024 & orders_2025"},
		{"2024 UNION 2025", "orders_2024 | orders_2025"},
		{"2024 EXCEPT 2025", "orders_2024 - orders_2025"},
		{"(2024 ∩ 2025) EXCEPT churned", "(orders_2024 & orders_2025) - churned"},
	}
	fmt.Printf("statistics pass over 3 tables; synopsis memory: %.2f MiB (bit cells)\n\n",
		float64(p.MemoryBytes())/(1<<20))
	fmt.Printf("%-30s %12s %12s %9s\n", "operator", "estimate", "exact", "error")
	for _, q := range queries {
		est, err := p.Estimate(q.expr, 0.1)
		if err != nil {
			log.Fatalf("estimate %q: %v", q.expr, err)
		}
		truth := exactCount(exact, q.expr)
		relErr := 0.0
		if truth > 0 {
			relErr = (est.Value - float64(truth)) / float64(truth) * 100
		}
		fmt.Printf("%-30s %12.0f %12d %+8.1f%%\n", q.sql, est.Value, truth, relErr)
	}

	// Counter sketches over the same scan would cost ≈33× the memory for
	// the same estimates — that headroom is why the bit representation
	// is the right default for optimizer statistics.
	counter, err := setsketch.NewProcessor(p.Options())
	if err != nil {
		log.Fatal(err)
	}
	for table, ids := range exact {
		for id := range ids {
			if err := counter.Insert(table, id); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("\ncounter-sketch memory for the same synopses: %.1f MiB (%.0f×)\n",
		float64(counter.MemoryBytes())/(1<<20),
		float64(counter.MemoryBytes())/float64(p.MemoryBytes()))
}

func exactCount(tables map[string]map[uint64]bool, q string) int {
	in := func(t string, id uint64) bool { return tables[t][id] }
	all := map[uint64]bool{}
	for _, ids := range tables {
		for id := range ids {
			all[id] = true
		}
	}
	n := 0
	for id := range all {
		o24, o25, ch := in("orders_2024", id), in("orders_2025", id), in("churned", id)
		var ok bool
		switch q {
		case "orders_2024 & orders_2025":
			ok = o24 && o25
		case "orders_2024 | orders_2025":
			ok = o24 || o25
		case "orders_2024 - orders_2025":
			ok = o24 && !o25
		case "(orders_2024 & orders_2025) - churned":
			ok = o24 && o25 && !ch
		}
		if ok {
			n++
		}
	}
	return n
}
