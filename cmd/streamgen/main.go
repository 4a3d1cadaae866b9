// Command streamgen generates controlled synthetic update streams with
// the methodology of the paper's experimental study (§5.1): a fixed
// union cardinality, a target cardinality for a given set expression,
// and optional deletion churn that leaves the net multi-sets unchanged.
//
// Usage:
//
//	streamgen -expr '(A - B) & C' -union 262144 -target 8192 \
//	          -phantoms 0.5 -overcount 0.25 -seed 7 > updates.txt
//
// With -updates N it instead emits the continuous Zipf/delete-ratio
// load the benchmarks use (datagen.LoadGen — the same workload
// definition behind the repository benchmark in bench/):
//
//	streamgen -updates 1000000 -streams A,B,C -zipf 1.0 \
//	          -support 16384 -deletes 0.1 -seed 7 > updates.txt
//
// The output is one update triple per line: "<stream> <element> <delta>".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/hashing"
	"setsketch/internal/streamio"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "streamgen:", err)
		os.Exit(1)
	}
}

// run executes the generator; split from main for testability.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("streamgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exprStr   = fs.String("expr", "A & B", "set expression whose cardinality is targeted")
		union     = fs.Int("union", 1<<18, "union cardinality u = |∪ streams|")
		target    = fs.Int("target", 1<<13, "target expression cardinality |E|")
		seed      = fs.Uint64("seed", 1, "random seed (same seed, same stream)")
		phantoms  = fs.Float64("phantoms", 0, "phantom churn ratio: extra elements inserted then fully deleted")
		overcount = fs.Float64("overcount", 0, "overcount churn ratio: elements inserted ×3 then deleted ×2")
		out       = fs.String("out", "-", "output file (- for stdout)")

		updates = fs.Int("updates", 0, "continuous-load mode: emit this many benchmark-workload updates instead of an expression workload")
		streams = fs.String("streams", "A,B,C", "continuous-load mode: comma-separated stream names")
		support = fs.Int("support", 1<<14, "continuous-load mode: distinct-element support")
		zipf    = fs.Float64("zipf", 1.0, "continuous-load mode: Zipf skew theta over the support (0 = uniform)")
		deletes = fs.Float64("deletes", 0, "continuous-load mode: fraction of updates that delete a live element")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	dst := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}

	if *updates > 0 {
		return runLoad(dst, stderr, loadParams{
			updates: *updates,
			streams: *streams,
			support: *support,
			zipf:    *zipf,
			deletes: *deletes,
			seed:    *seed,
		})
	}

	node, err := expr.Parse(*exprStr)
	if err != nil {
		return err
	}
	rng := hashing.NewRNG(*seed)
	w, err := datagen.Generate(datagen.Spec{Expr: node, Union: *union, Target: *target, Balance: true}, rng)
	if err != nil {
		return err
	}
	ups, err := datagen.RenderUpdates(w, datagen.ChurnSpec{Phantoms: *phantoms, Overcount: *overcount}, rng)
	if err != nil {
		return err
	}

	fmt.Fprintf(dst, "# streamgen expr=%q union=%d target=%d achieved=%d seed=%d phantoms=%g overcount=%g\n",
		*exprStr, *union, *target, w.TargetSize, *seed, *phantoms, *overcount)
	if err := streamio.Write(dst, ups); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d updates; exact |%s| = %d, |union| = %d\n",
		len(ups), node.String(), w.TargetSize, w.UnionSize)
	return nil
}

// loadParams bundles the continuous-load flags.
type loadParams struct {
	updates int
	streams string
	support int
	zipf    float64
	deletes float64
	seed    uint64
}

// runLoad emits the continuous benchmark workload in constant memory:
// updates are generated and written one line at a time, so arbitrarily
// long streams never materialize in full.
func runLoad(dst io.Writer, stderr io.Writer, p loadParams) error {
	names := strings.Split(p.streams, ",")
	g, err := datagen.NewLoadGen(datagen.LoadSpec{
		Streams: names,
		Domain:  datagen.DomainUniform,
		Support: p.support,
		Theta:   p.zipf,
		Deletes: p.deletes,
	}, hashing.NewRNG(p.seed))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(dst)
	fmt.Fprintf(bw, "# streamgen updates=%d streams=%s support=%d zipf=%g deletes=%g seed=%d\n",
		p.updates, p.streams, p.support, p.zipf, p.deletes, p.seed)
	var line []byte
	for i := 0; i < p.updates; i++ {
		line = streamio.AppendUpdate(line[:0], g.Next())
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d updates across %d streams; %d (stream, element) pairs live at end\n",
		p.updates, len(names), g.Live())
	return nil
}
