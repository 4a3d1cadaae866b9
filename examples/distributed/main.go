// Distributed collection (paper Fig. 1 and the stored-coins model):
// four edge sites each observe part of three update streams, summarize
// locally into 2-level hash sketches built from shared coins, and ship
// periodic synopsis deltas over a TCP session to a coordinator, which
// merges them — by sketch linearity, into exactly the synopses a
// single global observer would hold — and answers set-expression
// queries.
//
// Everything runs in one process over a loopback listener, but the
// site and coordinator halves communicate only through the wire
// protocol, exactly as separate machines would.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"

	"setsketch/internal/core"
	"setsketch/internal/distributed"
	"setsketch/internal/ingest"
)

// flushEvery is how many elements a site observes between delta
// flushes. Any value gives the same merged synopses.
const flushEvery = 2500

func main() {
	// Shared stored coins: every party derives identical hash functions
	// from these three values.
	coins := distributed.Coins{Config: core.DefaultConfig(), Seed: 2003, Copies: 512}

	// Coordinator.
	coord, err := distributed.NewCoordinator(coins)
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := distributed.NewServer(coord)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	fmt.Printf("coordinator listening on %s\n", l.Addr())

	// Ground truth for the demo.
	var truthMu sync.Mutex
	truth := map[string]map[uint64]bool{"A": {}, "B": {}, "C": {}}

	observe := func(stream string, e uint64) {
		truthMu.Lock()
		truth[stream][e] = true
		truthMu.Unlock()
	}

	// Four sites, each seeing a shard of the traffic, shipping over TCP.
	var wg sync.WaitGroup
	for siteID := 0; siteID < 4; siteID++ {
		wg.Add(1)
		go func(siteID int) {
			defer wg.Done()
			name := fmt.Sprintf("edge-%d", siteID)
			if err := runSite(name, l.Addr().String(), coins, int64(siteID)+10, observe); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}(siteID)
	}
	wg.Wait()

	// Note: sites inserted overlapping shards (same element possibly at
	// two sites), so merged net frequencies exceed one — harmless, the
	// estimators count distinct elements.
	cli, err := distributed.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	fmt.Printf("\n%-16s %12s %12s %9s\n", "query", "estimate", "exact", "error")
	for _, q := range []string{"A | B | C", "A & B", "(A & B) - C", "C - A"} {
		est, err := cli.Query(q, 0.1)
		if err != nil {
			log.Fatalf("query %q: %v", q, err)
		}
		exact := exactAnswer(truth, q)
		relErr := 0.0
		if exact > 0 {
			relErr = (est.Value - float64(exact)) / float64(exact) * 100
		}
		fmt.Printf("%-16s %12.0f %12d %+8.1f%%\n", q, est.Value, exact, relErr)
	}

	srv.Close()
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
}

// runSite is one edge site: it sketches its share of the traffic with a
// local ingest engine and ships the engine's flush over its session
// every flushEvery elements, each flush counted by the updates it
// summarizes.
func runSite(name, addr string, coins distributed.Coins, seed int64, observe func(stream string, e uint64)) error {
	eng, err := ingest.New(coins.Config, coins.Seed, coins.Copies, ingest.Options{})
	if err != nil {
		return err
	}
	defer eng.Close()
	cli, err := distributed.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	sess, err := cli.OpenStream(name, coins)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var unshipped uint64
	for i := 0; i < 10000; i++ {
		e := uint64(rng.Int63n(1 << 18))
		// Element placement is a global property (element mod cases),
		// so shards agree on stream membership.
		for _, s := range placement(e) {
			if err := eng.Update(s, e, 1); err != nil {
				return err
			}
			observe(s, e)
			unshipped++
		}
		if (i+1)%flushEvery == 0 {
			if err := sess.SendFlush(eng.Flush(), unshipped); err != nil {
				return err
			}
			unshipped = 0
		}
	}
	accepted, err := sess.Heartbeat()
	if err != nil {
		return err
	}
	fmt.Printf("%s: shipped %d updates in %d flushes\n", name, accepted, 10000/flushEvery)
	return nil
}

// placement assigns an element to streams by global rule: ~30% in A∩B,
// some in C, etc., so the demo queries have meaningful cardinalities.
func placement(e uint64) []string {
	switch e % 10 {
	case 0, 1, 2:
		return []string{"A", "B"}
	case 3:
		return []string{"A", "B", "C"}
	case 4, 5:
		return []string{"A"}
	case 6, 7:
		return []string{"B"}
	default:
		return []string{"C"}
	}
}

func exactAnswer(truth map[string]map[uint64]bool, q string) int {
	n := 0
	seen := make(map[uint64]bool)
	for _, s := range []string{"A", "B", "C"} {
		for e := range truth[s] {
			if seen[e] {
				continue
			}
			seen[e] = true
			a, b, c := truth["A"][e], truth["B"][e], truth["C"][e]
			var ok bool
			switch q {
			case "A | B | C":
				ok = a || b || c
			case "A & B":
				ok = a && b
			case "(A & B) - C":
				ok = a && b && !c
			case "C - A":
				ok = c && !a
			}
			if ok {
				n++
			}
		}
	}
	return n
}
