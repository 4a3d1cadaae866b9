// Package distributed implements the paper's distributed
// stream-processing model (Fig. 1 and the Gibbons–Tirthapura
// "distributed-streams model with stored coins"): each stream — or part
// of a stream — is observed and summarized by its own site, and the
// resulting synopses are collected at a central coordinator where set
// expressions over the entire collection of streams are estimated.
//
// The stored coins are a (configuration, master seed, copy count)
// triple shared by all parties: every site derives bit-identical hash
// functions from it, so sketches of different streams compare
// bucket-by-bucket at the coordinator, and sketches of *the same*
// stream observed at different sites merge by counter addition into
// exactly the sketch a single observer would have built.
//
// A site reaches the coordinator only through a streaming session
// (stream.go): it either forwards raw update batches for the
// coordinator to sketch, or sketches locally with an ingest.Engine and
// ships each flush as counted synopsis deltas. By linearity the merged
// synopses do not depend on how often, or in how many pieces, a site
// ships.
package distributed

import (
	"fmt"

	"setsketch/internal/core"
)

// Coins is the shared randomness of the distributed model. All sites
// and the coordinator must agree on it; mismatched coins surface as
// core.ErrNotAligned at merge time.
type Coins struct {
	Config core.Config
	Seed   uint64
	Copies int
}

// NewFamily mints an empty sketch family from the coins.
func (c Coins) NewFamily() (*core.Family, error) {
	return core.NewFamily(c.Config, c.Seed, c.Copies)
}

// Validate checks the coins' parameters.
func (c Coins) Validate() error {
	if c.Copies < 1 {
		return fmt.Errorf("distributed: coins specify %d copies", c.Copies)
	}
	return c.Config.Validate()
}
