// Command espbench regenerates the paper's tables and figures.
//
// Usage:
//
//	espbench [-run id[,id...]] [-full] [-requests N] [-seed S] [-markdown]
//	         [-workers N] [-cpuprofile F] [-memprofile F]
//
// With no -run flag every experiment runs in presentation order. -full
// switches from the quick device (0.5 GiB) to the full experiment device
// (2 GiB, 8 channels x 4 chips) and a larger request count; expect a few
// minutes of wall time.
//
// Independent experiment cells fan out over a worker pool (GOMAXPROCS
// workers; override with -workers). Output is byte-identical at any worker
// count. The "regenerated in" lines are a progress indication, not a
// measurement: benchmark/ is the repository's performance harness.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/perf"
)

func main() {
	run := flag.String("run", "", "comma-separated experiment ids (default: all); see -list")
	list := flag.Bool("list", false, "list experiment ids and exit")
	full := flag.Bool("full", false, "use the full-size device and request counts")
	requests := flag.Int("requests", 0, "override the measured request count per run")
	seed := flag.Uint64("seed", 1, "workload seed")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown")
	workers := flag.Int("workers", 0, "experiment worker-pool size (0 = GOMAXPROCS; 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	all := experiment.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-13s %s\n", e.ID, e.Doc)
		}
		return
	}
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	want, err := selectIDs(*run, ids)
	if err != nil {
		fatal(err)
	}

	experiment.SetWorkers(*workers)
	opts := experiment.Options{Seed: *seed}
	if *full {
		opts.Geometry = experiment.ExperimentGeometry
		opts.Requests = 120000
	}
	if *requests > 0 {
		opts.Requests = *requests
	}

	prof, err := perf.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	for _, e := range all {
		if !want[e.ID] {
			continue
		}
		start := time.Now()
		table, err := e.Fn(opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if *markdown {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table.String())
		}
		fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if err := prof.Stop(); err != nil {
		fatal(err)
	}
}

// selectIDs resolves -run's comma-separated list against the valid
// experiment ids; an empty list selects them all. One unknown id fails the
// whole invocation before anything runs — a typo must not silently drop
// a table from the output.
func selectIDs(run string, valid []string) (map[string]bool, error) {
	want := make(map[string]bool, len(valid))
	if run == "" {
		for _, id := range valid {
			want[id] = true
		}
		return want, nil
	}
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment %q; available: %s", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	return want, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "espbench:", err)
	os.Exit(1)
}
