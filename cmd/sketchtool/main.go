// Command sketchtool builds, inspects, merges, and queries 2-level hash
// sketch synopses stored as files.
//
// Subcommands:
//
//	sketchtool build -in updates.txt -out sketches/ [-copies 512] [-s 32] [-seed 1]
//	    Replay an update stream file and write one synopsis file per
//	    stream into the output directory (<stream>.2lhs).
//
//	sketchtool estimate -dir sketches/ -expr '(A - B) & C' [-eps 0.1]
//	    Load synopses and print a cardinality estimate with diagnostics.
//
//	sketchtool exact -in updates.txt -expr '(A - B) & C'
//	    Replay the updates into exact multisets and print the true
//	    cardinality (linear memory; the baseline sketches avoid).
//
//	sketchtool info -file sketches/A.2lhs
//	    Print a synopsis file's parameters and footprint.
//
//	sketchtool merge -out merged.2lhs in1.2lhs in2.2lhs ...
//	    Merge synopses of sub-streams (same stored coins) into the
//	    synopsis of the combined stream.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/ingest"
	"setsketch/internal/multiset"
	"setsketch/internal/obs"
	"setsketch/internal/streamio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "estimate":
		err = runEstimate(os.Args[2:])
	case "exact":
		err = runExact(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	case "union":
		err = runUnion(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sketchtool {build|estimate|exact|info|merge|union} [flags]")
	os.Exit(2)
}

// runUnion estimates the distinct count of the union of the streams in
// the given synopsis files using the specialized Fig. 5 estimator
// (better constants than the general witness scheme). One file gives a
// plain distinct-count estimate.
func runUnion(args []string) error {
	fs := flag.NewFlagSet("union", flag.ExitOnError)
	eps := fs.Float64("eps", 0.1, "relative accuracy parameter ε")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("union: need at least one synopsis file")
	}
	fams := make([]*core.Family, 0, fs.NArg())
	for _, path := range fs.Args() {
		f, err := readFamily(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fams = append(fams, f)
	}
	est, err := core.EstimateUnion(fams, *eps, false)
	if err != nil {
		return err
	}
	fmt.Printf("|union of %d stream(s)| ≈ %.0f  (level %d, %d copies)\n",
		fs.NArg(), est.Value, est.Level, est.Copies)
	return nil
}

const fileExt = ".2lhs"

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "-", "update-stream file (- for stdin)")
	out := fs.String("out", ".", "output directory for synopsis files")
	copies := fs.Int("copies", 512, "sketch copies r per stream")
	s := fs.Int("s", 32, "second-level hash functions per sketch (at most 58)")
	wise := fs.Int("wise", 8, "first-level hash independence degree")
	seed := fs.Uint64("seed", 1, "stored-coins master seed")
	bits := fs.Bool("bits", false, "build 1-bit-cell synopses (≈33× smaller; rejects deletions)")
	workers := fs.Int("workers", 0, "ingest shard workers (0 = GOMAXPROCS)")
	digestCache := fs.Int("digest-cache", 0, "element-digest cache entries (0 = default 8192, negative = no cache)")
	level := fs.String("log-level", "warn", "progress/diagnostic log level: debug, info, warn, or error")
	fs.Parse(args)

	lv, err := obs.ParseLevel(*level)
	if err != nil {
		return err
	}
	log := obs.NewLogger(os.Stderr, lv).Named("build")

	cfg := core.DefaultConfig()
	cfg.SecondLevel = *s
	cfg.FirstWise = *wise
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if *bits {
		return buildBits(*in, cfg, *seed, *copies, *out)
	}
	start := time.Now()
	// Updates flow through the ingest engine: sharded copy-range
	// workers, per-batch coalescing, and the element-digest cache — a
	// skewed input file pays the hash bill once per hot element instead
	// of once per line.
	eng, err := ingest.New(cfg, *seed, *copies, ingest.Options{
		Workers: *workers, DigestCache: *digestCache, Log: log,
	})
	if err != nil {
		return err
	}
	progress := 0
	n, err := scanUpdates(*in, func(u datagen.Update) error {
		if err := eng.Update(u.Stream, u.Elem, u.Delta); err != nil {
			return err
		}
		progress++
		if progress%(1<<20) == 0 {
			log.Info("progress", "updates", progress,
				"elapsed", time.Since(start).Round(time.Millisecond).String())
		}
		return nil
	})
	if err != nil {
		eng.Close()
		return err
	}
	if err := eng.Close(); err != nil {
		return err
	}
	fams := eng.Snapshot()
	names := sortedKeys(fams)
	for _, name := range names {
		path := filepath.Join(*out, name+fileExt)
		if err := writeFamily(path, fams[name]); err != nil {
			return err
		}
		fmt.Printf("%s: %d updates summarized in %d KiB\n",
			path, n, fams[name].MemoryBytes()/1024)
	}
	log.Info("build done", "updates", n, "streams", len(fams),
		"elapsed", time.Since(start).Round(time.Millisecond).String())
	return nil
}

// buildBits is the -bits variant of build: insert-only bit synopses.
func buildBits(in string, cfg core.Config, seed uint64, copies int, out string) error {
	fams := make(map[string]*core.BitFamily)
	n, err := scanUpdates(in, func(u datagen.Update) error {
		if u.Delta < 0 {
			return fmt.Errorf("build -bits: stream %q contains deletions; bit synopses are insert-only", u.Stream)
		}
		f, ok := fams[u.Stream]
		if !ok {
			var err error
			if f, err = core.NewBitFamily(cfg, seed, copies); err != nil {
				return err
			}
			fams[u.Stream] = f
		}
		f.Insert(u.Elem)
		return nil
	})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(out, name+fileExt)
		fd, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := fams[name].WriteTo(fd); err != nil {
			fd.Close()
			return err
		}
		if err := fd.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: %d updates summarized in %d KiB (bit cells)\n",
			path, n, fams[name].MemoryBytes()/1024)
	}
	return nil
}

func runEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory holding <stream>"+fileExt+" synopsis files")
	exprStr := fs.String("expr", "", "set expression to estimate (required)")
	eps := fs.Float64("eps", 0.1, "relative accuracy parameter ε")
	single := fs.Bool("single", false, "use the paper-literal single-level witness estimator")
	fs.Parse(args)
	if *exprStr == "" {
		return fmt.Errorf("estimate: -expr is required")
	}
	node, err := expr.Parse(*exprStr)
	if err != nil {
		return err
	}
	fams := make(map[string]*core.Family)
	for _, name := range expr.Streams(node) {
		f, err := readFamily(filepath.Join(*dir, name+fileExt))
		if err != nil {
			return fmt.Errorf("stream %q: %w", name, err)
		}
		fams[name] = f
	}
	q, err := core.CompileQuery(node)
	if err != nil {
		return err
	}
	est, err := q.Estimate(fams, *eps, !*single, core.EstimateOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("|%s| ≈ %.0f", node.String(), est.Value)
	if est.StdError > 0 {
		fmt.Printf(" ± %.0f", est.StdError)
	}
	fmt.Println()
	fmt.Printf("  union estimate û = %.0f, witness level = %d\n", est.Union, est.Level)
	fmt.Printf("  copies = %d, valid observations = %d, witnesses = %d\n",
		est.Copies, est.Valid, est.Witnesses)
	return nil
}

func runExact(args []string) error {
	fs := flag.NewFlagSet("exact", flag.ExitOnError)
	in := fs.String("in", "-", "update-stream file (- for stdin)")
	exprStr := fs.String("expr", "", "set expression to evaluate (required)")
	fs.Parse(args)
	if *exprStr == "" {
		return fmt.Errorf("exact: -expr is required")
	}
	node, err := expr.Parse(*exprStr)
	if err != nil {
		return err
	}
	ms := make(map[string]*multiset.Multiset)
	i := 0
	if _, err := scanUpdates(*in, func(u datagen.Update) error {
		i++
		m, ok := ms[u.Stream]
		if !ok {
			m = multiset.New()
			ms[u.Stream] = m
		}
		if err := m.Update(u.Elem, u.Delta); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
		return nil
	}); err != nil {
		return err
	}
	sets := make(map[string]multiset.Set, len(ms))
	for name, m := range ms {
		sets[name] = m.Support()
	}
	fmt.Printf("|%s| = %d\n", node.String(), len(node.EvalSet(sets)))
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	file := fs.String("file", "", "synopsis file (required)")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("info: -file is required")
	}
	f, err := readFamily(*file)
	if err != nil {
		return err
	}
	st, err := os.Stat(*file)
	if err != nil {
		return err
	}
	cfg := f.Config()
	fmt.Printf("%s:\n", *file)
	fmt.Printf("  copies r = %d, second-level s = %d, first-level %d-wise, %d buckets\n",
		f.Copies(), cfg.SecondLevel, cfg.FirstWise, cfg.Buckets)
	fmt.Printf("  stored-coins seed = %d\n", f.Seed())
	fmt.Printf("  in-memory %d KiB, on disk %d KiB\n", f.MemoryBytes()/1024, st.Size()/1024)
	return nil
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "output synopsis file (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() < 1 {
		return fmt.Errorf("merge: need -out and at least one input file")
	}
	var merged *core.Family
	for _, path := range fs.Args() {
		f, err := readFamily(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if merged == nil {
			merged = f
			continue
		}
		if err := merged.Merge(f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if err := writeFamily(*out, merged); err != nil {
		return err
	}
	fmt.Printf("%s: merged %d synopses\n", *out, fs.NArg())
	return nil
}

// scanUpdates streams the updates of a file (stdin for "-") through fn
// one at a time — constant memory regardless of input size — and
// returns how many updates were processed.
func scanUpdates(path string, fn func(datagen.Update) error) (int, error) {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		r = f
	}
	sc := streamio.NewScanner(r)
	n := 0
	for sc.Scan() {
		if err := fn(sc.Update()); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}

func writeFamily(path string, f *core.Family) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.WriteTo(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// readFamily loads a synopsis file of either format: counter families
// ("2LHS") are read directly; insert-only bit families ("2LHB", from
// build -bits) are converted to occupancy-equivalent counter families,
// so every subcommand works on both.
func readFamily(path string) (*core.Family, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	br := bufio.NewReader(in)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, core.ErrBadFormat)
	}
	if string(magic) == "2LHB" {
		bf, err := core.ReadBitFamily(br)
		if err != nil {
			return nil, err
		}
		return bf.ToCounters(), nil
	}
	return core.ReadFamily(br)
}

func sortedKeys(m map[string]*core.Family) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
