package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeStream writes a small update-stream file covering three streams
// with known exact cardinalities: A = {0..199}, B = {100..299},
// C = {0..49, 250..299}; includes deletions that cancel.
func writeStream(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# test stream\n")
	for e := 0; e < 200; e++ {
		fmt := func(s string, e int) {
			sb.WriteString(s)
			sb.WriteString(" ")
			sb.WriteString(itoa(e))
			sb.WriteString(" 1\n")
		}
		fmt("A", e)
		fmt("B", e+100)
		if e < 50 {
			fmt("C", e)
			fmt("C", e+250)
		}
	}
	// Insert-and-delete churn on A: net effect zero.
	for e := 1000; e < 1100; e++ {
		sb.WriteString("A " + itoa(e) + " 2\n")
		sb.WriteString("A " + itoa(e) + " -2\n")
	}
	path := filepath.Join(t.TempDir(), "updates.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestBuildEstimateExactPipeline(t *testing.T) {
	stream := writeStream(t)
	outDir := t.TempDir()

	if err := runBuild([]string{"-in", stream, "-out", outDir, "-copies", "256", "-s", "16", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		if _, err := os.Stat(filepath.Join(outDir, name+fileExt)); err != nil {
			t.Fatalf("missing synopsis for %s: %v", name, err)
		}
	}
	if err := runEstimate([]string{"-dir", outDir, "-expr", "(A & B) - C", "-eps", "0.2"}); err != nil {
		t.Fatal(err)
	}
	if err := runExact([]string{"-in", stream, "-expr", "(A & B) - C"}); err != nil {
		t.Fatal(err)
	}
	if err := runInfo([]string{"-file", filepath.Join(outDir, "A"+fileExt)}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSubcommand(t *testing.T) {
	stream := writeStream(t)
	dir1, dir2 := t.TempDir(), t.TempDir()
	// Same stream summarized twice with identical coins: merging the
	// synopses is legal and produces a doubled-frequency synopsis.
	for _, d := range []string{dir1, dir2} {
		if err := runBuild([]string{"-in", stream, "-out", d, "-copies", "32", "-s", "8", "-seed", "3"}); err != nil {
			t.Fatal(err)
		}
	}
	merged := filepath.Join(t.TempDir(), "merged"+fileExt)
	err := runMerge([]string{"-out", merged,
		filepath.Join(dir1, "A"+fileExt), filepath.Join(dir2, "A"+fileExt)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(merged); err != nil {
		t.Fatal(err)
	}
	// Mismatched coins must fail.
	dir3 := t.TempDir()
	if err := runBuild([]string{"-in", stream, "-out", dir3, "-copies", "32", "-s", "8", "-seed", "99"}); err != nil {
		t.Fatal(err)
	}
	err = runMerge([]string{"-out", merged,
		filepath.Join(dir1, "A"+fileExt), filepath.Join(dir3, "A"+fileExt)})
	if err == nil {
		t.Error("merging synopses with different coins succeeded")
	}
}

// TestMergeBitsWithCounters: a bit file and a counter file with the
// same coins merge in either argument order into the same synopsis,
// which reads back as a valid counter family.
func TestMergeBitsWithCounters(t *testing.T) {
	coins := []string{"-copies", "32", "-s", "8", "-seed", "3"}
	cntDir, bitDir := t.TempDir(), t.TempDir()
	if err := runBuild(append([]string{"-in", writeStream(t), "-out", cntDir}, coins...)); err != nil {
		t.Fatal(err)
	}
	insertOnly := filepath.Join(t.TempDir(), "ins.txt")
	var sb strings.Builder
	for e := 0; e < 300; e++ {
		sb.WriteString("A " + itoa(e+150) + " 1\n")
	}
	if err := os.WriteFile(insertOnly, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runBuild(append([]string{"-in", insertOnly, "-out", bitDir, "-bits"}, coins...)); err != nil {
		t.Fatal(err)
	}
	x := filepath.Join(bitDir, "x.2lhb")
	if err := os.Rename(filepath.Join(bitDir, "A"+fileExt), x); err != nil {
		t.Fatal(err)
	}
	y := filepath.Join(cntDir, "A"+fileExt)
	out := t.TempDir()
	var merged [2][]byte
	for k, args := range [][]string{{x, y}, {y, x}} {
		path := filepath.Join(out, itoa(k)+fileExt)
		if err := runMerge(append([]string{"-out", path}, args...)); err != nil {
			t.Fatalf("merge %v: %v", args, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		merged[k] = b
		if _, err := readFamily(path); err != nil {
			t.Fatalf("merged synopsis does not read back: %v", err)
		}
	}
	if string(merged[0]) != string(merged[1]) {
		t.Error("merging bits then counters and counters then bits gave different synopses")
	}
}

func TestUnionSubcommand(t *testing.T) {
	stream := writeStream(t)
	outDir := t.TempDir()
	if err := runBuild([]string{"-in", stream, "-out", outDir, "-copies", "64", "-s", "8", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(outDir, "A"+fileExt)
	b := filepath.Join(outDir, "B"+fileExt)
	if err := runUnion([]string{"-eps", "0.2", a, b}); err != nil {
		t.Fatal(err)
	}
	// Single file: distinct count.
	if err := runUnion([]string{a}); err != nil {
		t.Fatal(err)
	}
	if err := runUnion([]string{}); err == nil {
		t.Error("union without files succeeded")
	}
	if err := runUnion([]string{"/nonexistent"}); err == nil {
		t.Error("union on missing file succeeded")
	}
}

func TestBuildBitsPipeline(t *testing.T) {
	stream := writeStream(t)
	outDir := t.TempDir()
	// writeStream contains deletions; -bits must reject it.
	err := runBuild([]string{"-in", stream, "-out", outDir, "-bits", "-copies", "64", "-s", "8", "-seed", "3"})
	if err == nil {
		t.Fatal("build -bits accepted a stream with deletions")
	}
	// An insert-only stream builds, and the other subcommands read the
	// bit files transparently.
	insertOnly := filepath.Join(t.TempDir(), "ins.txt")
	var sb strings.Builder
	for e := 0; e < 300; e++ {
		sb.WriteString("A " + itoa(e) + " 1\n")
		sb.WriteString("B " + itoa(e+150) + " 1\n")
	}
	if err := os.WriteFile(insertOnly, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runBuild([]string{"-in", insertOnly, "-out", outDir, "-bits", "-copies", "64", "-s", "8", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := runEstimate([]string{"-dir", outDir, "-expr", "A & B", "-eps", "0.3"}); err != nil {
		t.Fatal(err)
	}
	if err := runEstimate([]string{"-dir", outDir, "-expr", "A & B", "-eps", "0.3", "-single"}); err != nil {
		t.Fatal(err)
	}
	if err := runUnion([]string{filepath.Join(outDir, "A"+fileExt), filepath.Join(outDir, "B"+fileExt)}); err != nil {
		t.Fatal(err)
	}
}

func TestSubcommandErrors(t *testing.T) {
	if err := runEstimate([]string{"-dir", t.TempDir()}); err == nil {
		t.Error("estimate without -expr succeeded")
	}
	if err := runEstimate([]string{"-dir", t.TempDir(), "-expr", "A & B"}); err == nil {
		t.Error("estimate with missing synopsis files succeeded")
	}
	if err := runExact([]string{"-in", "/nonexistent", "-expr", "A"}); err == nil {
		t.Error("exact on missing file succeeded")
	}
	if err := runExact([]string{"-expr", ""}); err == nil {
		t.Error("exact without expression succeeded")
	}
	if err := runInfo([]string{}); err == nil {
		t.Error("info without -file succeeded")
	}
	if err := runMerge([]string{"-out", ""}); err == nil {
		t.Error("merge without inputs succeeded")
	}
	// Illegal deletion in the stream must be reported by exact replay.
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("A 1 -5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runExact([]string{"-in", bad, "-expr", "A"}); err == nil {
		t.Error("exact accepted an illegal deletion")
	}
}
