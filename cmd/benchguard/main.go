// Command benchguard compares `go test -bench` output against a
// checked-in baseline and fails on large regressions. It is the gate the
// CI bench-smoke job runs: deliberately coarse (default: fail only when a
// benchmark got more than 2x slower) because single-iteration smoke
// numbers are noisy, with a time floor below which benchmarks are ignored
// entirely (sub-100µs numbers at -benchtime=1x are dominated by jitter).
//
// Usage:
//
//	benchguard -baseline bench/baseline.txt -current bench.out [-max-ratio 2] [-floor 100µs]
//	benchguard -update
//
// -update refreshes the baseline in place: it runs the exact bench
// command the CI smoke job runs and atomically rewrites -baseline with
// the output. Run it after intentional performance changes and commit
// the result.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchArgs is the single source of truth for the smoke bench command;
// CI runs the identical invocation, so -update regenerates exactly what
// the guard will later compare against.
var benchArgs = []string{
	"test", "-bench=.", "-benchtime=1x", "-benchmem", "-run", "^$",
	".", "./internal/host/", "./internal/lifetime/", "./internal/nand/", "./internal/server/",
}

// update reruns the smoke benchmarks and rewrites the baseline file. The
// bench output streams to stderr as it is produced so a slow run is
// visibly alive; the baseline is replaced atomically only on success.
func update(baselinePath string) error {
	fmt.Fprintf(os.Stderr, "benchguard: go %s\n", strings.Join(benchArgs, " "))
	cmd := exec.Command("go", benchArgs...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("bench run failed: %w", err)
	}
	tmp := baselinePath + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	parsed, err := parseBench(tmp)
	if err == nil && len(parsed) == 0 {
		err = fmt.Errorf("bench run produced no benchmark lines")
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, baselinePath); err != nil {
		return err
	}
	fmt.Printf("benchguard: wrote %d benchmark baselines to %s\n", len(parsed), baselinePath)
	return nil
}

// result is one parsed benchmark line.
type result struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
}

// parseBench extracts benchmark results from `go test -bench` output.
// Lines look like:
//
//	BenchmarkDeviceProgram-8   10000   75.82 ns/op   0 B/op   0 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so baselines port across hosts.
func parseBench(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]result{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r result
		ok := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.nsPerOp = v
				ok = true
			case "allocs/op":
				r.allocsPerOp = v
				r.hasAllocs = true
			}
		}
		if ok {
			out[name] = r
		}
	}
	return out, sc.Err()
}

func main() {
	baselinePath := flag.String("baseline", "bench/baseline.txt", "checked-in baseline bench output")
	currentPath := flag.String("current", "", "bench output of the run under test")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when current ns/op exceeds baseline by more than this factor")
	floor := flag.Duration("floor", 100*time.Microsecond, "ignore benchmarks whose baseline ns/op is below this (too noisy at -benchtime=1x)")
	doUpdate := flag.Bool("update", false, "rerun the smoke benchmarks and rewrite -baseline with the result")
	flag.Parse()
	if *doUpdate {
		if err := update(*baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		return
	}
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -current is required")
		os.Exit(2)
	}

	baseline, err := parseBench(*baselinePath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchguard: baseline %q does not exist; seed it from a trusted run:\n", *baselinePath)
			fmt.Fprintf(os.Stderr, "  go test -bench=. -benchtime=1x -benchmem -run '^$' <packages> > %s\n", *baselinePath)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %q parsed but holds no benchmark lines; every result below would be unguarded.\n", *baselinePath)
		fmt.Fprintf(os.Stderr, "  Regenerate it with: go test -bench=. -benchtime=1x -benchmem -run '^$' <packages> > %s\n", *baselinePath)
		os.Exit(2)
	}
	current, err := parseBench(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no benchmark results in", *currentPath)
		os.Exit(2)
	}

	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	var unguarded []string
	for _, name := range names {
		cur := current[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Printf("NEW      %-40s %12.0f ns/op (no baseline entry)\n", name, cur.nsPerOp)
			unguarded = append(unguarded, name)
			continue
		}
		ratio := 0.0
		if base.nsPerOp > 0 {
			ratio = cur.nsPerOp / base.nsPerOp
		}
		switch {
		case base.nsPerOp < float64(floor.Nanoseconds()):
			fmt.Printf("SKIP     %-40s %12.0f ns/op (baseline below %v floor)\n", name, cur.nsPerOp, *floor)
		case ratio > *maxRatio:
			fmt.Printf("REGRESS  %-40s %12.0f ns/op vs %0.f baseline (%.2fx > %.2fx)\n", name, cur.nsPerOp, base.nsPerOp, ratio, *maxRatio)
			failed++
		default:
			fmt.Printf("OK       %-40s %12.0f ns/op vs %.0f baseline (%.2fx)\n", name, cur.nsPerOp, base.nsPerOp, ratio)
		}
		// A zero-alloc benchmark growing allocations is a real regression
		// regardless of timing noise — the AllocsPerRun guards catch the
		// device paths, this catches everything else benchmarked.
		if base.hasAllocs && cur.hasAllocs && base.allocsPerOp == 0 && cur.allocsPerOp > 0 {
			fmt.Printf("REGRESS  %-40s now allocates %.0f objects/op (baseline 0)\n", name, cur.allocsPerOp)
			failed++
		}
	}
	for name := range baseline {
		if _, ok := current[name]; !ok {
			fmt.Printf("MISSING  %-40s in current run (renamed or deleted?)\n", name)
		}
	}
	if len(unguarded) > 0 {
		fmt.Printf("benchguard: %d benchmark(s) have no baseline entry and are NOT guarded: %s\n",
			len(unguarded), strings.Join(unguarded, ", "))
		fmt.Printf("  Append their lines to %s (from this run's output) to start guarding them.\n", *baselinePath)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d regression(s) beyond %.1fx\n", failed, *maxRatio)
		os.Exit(1)
	}
	fmt.Println("benchguard: no regressions beyond tolerance")
}
