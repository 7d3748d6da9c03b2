package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// resultSet is a full pass: every workload's untraced runs, one detail
// record per run. Two of them are what -compare reads.
type resultSet struct {
	Env       envInfo              `json:"env"`
	Seconds   int                  `json:"seconds"`
	Workloads map[string][]*detail `json:"workloads"`
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err // bare, so a caller can tell a missing file
	}
	s := new(resultSet)
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// put adds a run, replacing an earlier run of the same workload and seed.
func (s *resultSet) put(d *detail) {
	runs := s.Workloads[d.Workload]
	for i, old := range runs {
		if old.Seed == d.Seed {
			runs[i] = d
			return
		}
	}
	s.Workloads[d.Workload] = append(runs, d)
}

// values returns one value per run of a workload for a metric.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, d := range s.Workloads[workload] {
		if v, ok := d.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// bySeed returns a workload's value of a metric for each seed run.
func (s *resultSet) bySeed(workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, d := range s.Workloads[workload] {
		if v, ok := d.Result.Metrics[metric]; ok {
			out[d.Seed] = v.Value
		}
	}
	return out
}

// canary is the median of the set's calibration times, before and after
// every run.
func (s *resultSet) canary() float64 {
	var all []float64
	for _, runs := range s.Workloads {
		for _, d := range runs {
			all = append(all, d.CalibMS[0], d.CalibMS[1])
		}
	}
	return median(all)
}

// verdict compares B with A on one metric. A difference inside the bound
// is "same"; beyond it, "better" or "worse" — unless the two sets' own
// spread exceeds the bound, which leaves the difference "unresolved"
// except when every run of one side beats every run of the other.
func verdict(a, b []float64, m metricDecl) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "missing"
	}
	change := (mb - ma) / ma // > 0: B reads higher
	if m.Better == "lower" {
		change = -change
	} // now > 0 means B is better
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	bAlwaysHigher, bAlwaysLower := loB > hiA, hiB < loA
	separatedBetter := (m.Better == "higher" && bAlwaysHigher) || (m.Better == "lower" && bAlwaysLower)
	separatedWorse := (m.Better == "higher" && bAlwaysLower) || (m.Better == "lower" && bAlwaysHigher)
	noisy := spread(a) > m.Bound || spread(b) > m.Bound
	switch {
	case change < -m.Bound && (!noisy || separatedWorse):
		return "worse"
	case change > m.Bound && (!noisy || separatedBetter):
		return "better"
	case noisy:
		return "unresolved"
	}
	return "same"
}

// pairedBound is what a simulated metric of a deterministic workload may
// move for one seed. The same seed gives the same requests on any box and
// any commit, so two sets differ there only when the model does, and the
// spread between seeds — which is what the bounds in BENCHMARK.json have to
// cover — does not enter.
const pairedBound = 0.01

// pairedVerdict compares a simulated metric seed by seed over the seeds
// both sets ran: "worse" when any seed lost more than pairedBound,
// "better" when none did and one gained as much. worst is the change of
// the seed that moved furthest against B (> 0: B is better there).
func pairedVerdict(a, b map[uint64]float64, m metricDecl) (v string, worst float64) {
	worst, best := math.Inf(1), math.Inf(-1)
	for seed, va := range a {
		vb, ok := b[seed]
		if !ok || va == 0 {
			continue
		}
		change := (vb - va) / va
		if m.Better == "lower" {
			change = -change
		}
		worst, best = math.Min(worst, change), math.Max(best, change)
	}
	switch {
	case math.IsInf(worst, 1):
		return "missing", 0
	case worst < -pairedBound:
		return "worse", worst
	case best > pairedBound:
		return "better", worst
	}
	return "same", worst
}

// compareFiles prints one row per workload x end-to-end metric and
// returns the process exit status: 1 when any row is "worse", or when a
// deterministic workload's model digest differs for a seed both sets ran
// and modelChange does not declare that the model was meant to change.
func compareFiles(pathA, pathB string, modelChange bool) int {
	a, err := readSet(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readSet(pathB)
	if err != nil {
		fatal("%v", err)
	}
	// The canary medians say whether the box itself ran at one speed for
	// both sets; when they differ, so will every host-time metric.
	fmt.Printf("A: %s (commit %s, %d cores, canary median %.1f ms)\nB: %s (commit %s, %d cores, canary median %.1f ms)\n",
		pathA, a.Env.Commit, a.Env.NProc, a.canary(), pathB, b.Env.Commit, b.Env.NProc, b.canary())
	fmt.Printf("%-12s %-16s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "change", "bound", "spreadA", "spreadB", "verdict")
	status := 0
	for _, w := range workloads {
		for _, m := range endToEndMetrics {
			va, vb := a.values(w.name, m.Name), b.values(w.name, m.Name)
			bound, v, note := m.Bound, "", ""
			if w.deterministic && m.Simulated {
				var worst float64
				if v, worst = pairedVerdict(a.bySeed(w.name, m.Name), b.bySeed(w.name, m.Name), m); v != "missing" {
					bound, note = pairedBound, fmt.Sprintf(" (seed by seed, worst %+.2f%%)", 100*worst+0)
				}
			}
			if v == "" || v == "missing" {
				// Host-time metrics, the served workloads, and sets that share
				// no seed: medians against the bound BENCHMARK.json fixes.
				v = verdict(va, vb, m)
			}
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-12s %-16s %14.6g %14.6g %+7.2f%% %6.1f%% %7.2f%% %7.2f%%  %s%s\n",
				w.name, m.Name, median(va), median(vb), 100*(ratio(median(vb), median(va))-1),
				100*bound, 100*spread(va), 100*spread(vb), v, note)
		}
		if !w.deterministic {
			continue
		}
		if diff := digestDiff(a.Workloads[w.name], b.Workloads[w.name]); diff != "" {
			if modelChange {
				fmt.Printf("%-12s model digests differ (declared with -model-change): %s\n", w.name, diff)
			} else {
				fmt.Printf("%-12s MODEL CHANGED: digests differ, %s; pass -model-change if the simulated outcome was meant to move\n", w.name, diff)
				status = 1
			}
		}
	}
	return status
}

// digestDiff lists, in seed order, the seeds both sets ran whose model
// digests differ; empty when none does.
func digestDiff(runsA, runsB []*detail) string {
	inA := map[uint64]string{}
	for _, d := range runsA {
		inA[d.Seed] = d.Digest
	}
	var diffs []string
	runsB = append([]*detail(nil), runsB...)
	sort.Slice(runsB, func(i, j int) bool { return runsB[i].Seed < runsB[j].Seed })
	for _, d := range runsB {
		if da, ok := inA[d.Seed]; ok && da != d.Digest {
			diffs = append(diffs, fmt.Sprintf("seed %d: A %s, B %s", d.Seed, da, d.Digest))
		}
	}
	return strings.Join(diffs, "; ")
}
