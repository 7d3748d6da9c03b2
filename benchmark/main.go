// Command benchmark is the repository's end-to-end and per-layer
// benchmark: six workloads over the simulator (serial replay, host
// scheduler) and the served path (loopback TCP), each reporting the
// end-to-end metrics named in BENCHMARK.json and, in a separate traced
// run, the per-layer metrics. See README.md in this directory.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run, JSON result on the last line
//	benchmark [-seed N] [-runs K] [-trace 1] [-out DIR]      every workload, each run in a child process
//	benchmark -compare [-model-change] A.json B.json         verdict per workload x end-to-end metric
//	benchmark -list                                          workload and metric names
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/nand"
)

// refSeconds is the run length the workloads' request counts are sized
// for; -seconds scales them linearly. Counts, not deadlines, end a timed
// window: a fixed count makes every simulated number repeat exactly for a
// seed, on any box and any commit.
const refSeconds = 6

// microIters is how many iterations the codec and generator
// micro-measurements time, at full scale.
const microIters = 400_000

// repetitions is how many times a run rebuilds the workload's state from
// scratch and measures it; the run reports the median.
const repetitions = 3

// runCtx is what one repetition of a workload is given.
type runCtx struct {
	seed  uint64
	scale float64 // request-count multiplier
	// smoke shrinks the run to a self-test of the harness: 1/100 of the
	// requests on the quick geometry. Its numbers mean nothing. Only the
	// package's tests set it; no flag does.
	smoke bool
	// layer is non-nil in a traced run and receives the per-layer metrics:
	// from its untraced repetition (tr nil) those that tracing would
	// perturb, from the traced one (tr set) the rest.
	tr    *tracer
	layer map[string]float64
	// cpuProfile is the CPU profile a workload took of its timed window
	// (served workloads, untraced repetition of a traced run), as pprof
	// reads it.
	cpuProfile []byte
}

// geometry is the device of the simulator workloads.
func (rc *runCtx) geometry() nand.Geometry {
	if rc.smoke {
		return experiment.QuickGeometry
	}
	return experiment.ExperimentGeometry
}

// mounts is how many remounts the recovery measurement takes the median of.
func (rc *runCtx) mounts() int {
	if rc.smoke {
		return 2
	}
	return 10
}

// count scales a reference request count, keeping it a positive multiple
// of the tick cadence.
func (rc *runCtx) count(ref int) int {
	scale := rc.scale
	if rc.smoke {
		scale /= 100
	}
	n := int(float64(ref)*scale) / tickEvery * tickEvery
	if n < 2*tickEvery {
		n = 2 * tickEvery
	}
	return n
}

// rep is what one repetition measured.
type rep struct {
	setup, wall, cpu time.Duration // set-up; timed windows (wall and process CPU)
	reqs, failed     int64         // over the timed windows
	sub              *window       // subFTL's simulated outcome
	dig              *digest
	rt               runtimeStats // Go runtime work inside the timed windows
	liveHeapMB       float64      // largest live heap at the end of a timed window
}

// addWindow folds one stack's timed window into the repetition.
func (r *rep) addWindow(w *window, setup time.Duration, m meter) {
	r.setup += setup
	r.wall += w.wall
	r.cpu += m.u.cpu()
	r.rt = r.rt.add(m.rt)
	r.liveHeapMB = math.Max(r.liveHeapMB, m.liveHeapMB)
	r.reqs += w.reqs
	r.failed += w.failed
	w.addTo(r.dig)
}

// endToEnd turns a repetition into the end-to-end metric values.
func (r *rep) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":          r.setup.Seconds(),
		"req_per_s":        ratio(float64(r.reqs), r.wall.Seconds()),
		"cpu_us_per_req":   ratio(float64(r.cpu)/1e3, float64(r.reqs)),
		"live_heap_mb":     r.liveHeapMB,
		"virt_iops":        r.sub.virtIOPS(),
		"virt_tail_lat_us": r.sub.virtTail / 1e3,
		"waf":              r.sub.stats.OverallWAF(),
		"erases_per_kreq":  erasesPerKReq(r.sub.stats),
	}
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is the fuller record a run writes beside its result line: the
// per-repetition values behind each median, the model digest, and the
// environment with its noise canary.
type detail struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Trace    int                  `json:"trace"`
	Result   result               `json:"result"`
	Reps     map[string][]float64 `json:"repetitions"`
	Digest   string               `json:"model_digest"`
	Env      envInfo              `json:"env"`
	CalibMS  [2]float64           `json:"calib_ms_before_after"`
	Noisy    bool                 `json:"noisy"`
	Problems []string             `json:"problems,omitempty"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload only, in this process")
		seed         = flag.Uint64("seed", 1, "workload seed")
		seconds      = flag.Int("seconds", refSeconds, "seconds one run measures (scales the request counts)")
		trace        = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out          = flag.String("out", filepath.Join(".bench_build", "out"), "directory for result and span files")
		runs         = flag.Int("runs", 1, "full pass: runs per workload, seeds seed..seed+runs-1")
		compare      = flag.Bool("compare", false, "compare two result files: -compare [-model-change] A.json B.json")
		modelChange  = flag.Bool("model-change", false, "with -compare: B's simulated outcome was meant to differ from A's, so differing model digests do not fail")
		list         = flag.Bool("list", false, "print workload and metric names")
	)
	flag.Parse()
	switch {
	case *list:
		printList()
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare [-model-change] A.json B.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), *modelChange))
	case *workloadName != "":
		spec, ok := findWorkload(*workloadName)
		if !ok {
			fatal("unknown workload %q (see -list)", *workloadName)
		}
		if *seconds < 1 {
			fatal("-seconds %d (want >= 1)", *seconds)
		}
		d := runWorkload(spec, *seed, *seconds, *trace != 0, *out)
		if !d.Result.Correct {
			for _, p := range d.Problems {
				fmt.Fprintln(os.Stderr, "benchmark:", p)
			}
			os.Exit(1)
		}
	default:
		os.Exit(fullPass(*seed, *seconds, *runs, *trace != 0, *out))
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload measures one workload in this process and prints its result.
func runWorkload(spec workloadSpec, seed uint64, seconds int, traced bool, out string) *detail {
	d := &detail{Workload: spec.name, Seed: seed, Seconds: seconds, Env: readEnv(), Reps: map[string][]float64{}}
	if traced {
		d.Trace = 1
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal("%v", err)
	}
	calib0 := calibrate()
	rc := runCtx{seed: seed, scale: float64(seconds) / refSeconds}
	var res result
	if traced {
		res = runTraced(spec, rc, out, d)
	} else {
		res = runUntraced(spec, rc, d)
	}
	calib1 := calibrate()
	d.CalibMS = [2]float64{float64(calib0) / 1e6, float64(calib1) / 1e6}
	d.Noisy = math.Abs(float64(calib1)/float64(calib0)-1) > canaryTolerance
	if traced {
		res.Metrics["env.calib_ms_before"] = value{d.CalibMS[0], "ms"}
		res.Metrics["env.calib_ms_after"] = value{d.CalibMS[1], "ms"}
	}
	res.Correct = len(d.Problems) == 0
	d.Result = res

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %v %s\n", spec.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%s model_digest %s\n", spec.name, d.Digest)
	if d.Noisy {
		fmt.Printf("%s NOISY: calibration loop moved %.1f ms -> %.1f ms\n", spec.name, d.CalibMS[0], d.CalibMS[1])
	}
	for _, p := range d.Problems {
		fmt.Printf("%s PROBLEM: %s\n", spec.name, p)
	}
	file := filepath.Join(out, fmt.Sprintf("run-%s-s%d-t%d.json", spec.name, seed, d.Trace))
	if b, err := json.MarshalIndent(d, "", " "); err != nil {
		fatal("%v", err)
	} else if err := os.WriteFile(file, b, 0o644); err != nil {
		fatal("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	return d
}

// runUntraced is the run that yields the end-to-end metrics: the median
// of `repetitions` repetitions on freshly built state.
func runUntraced(spec workloadSpec, rc runCtx, d *detail) result {
	res := result{Metrics: map[string]value{}}
	for i := 0; i < repetitions; i++ {
		runtime.GC()
		ctx := rc
		r, err := spec.run(&ctx)
		if err != nil {
			d.Problems = append(d.Problems, fmt.Sprintf("repetition %d: %v", i, err))
			res.Attempted++
			res.Failed++
			return res
		}
		res.Attempted += r.reqs
		res.Failed += r.failed
		for n, v := range r.endToEnd() {
			d.Reps[n] = append(d.Reps[n], v)
		}
		d.Reps["timed_s"] = append(d.Reps["timed_s"], r.wall.Seconds())
		d.noteDigest(spec, r, fmt.Sprintf("repetition %d", i))
	}
	if res.Failed > 0 {
		d.Problems = append(d.Problems, fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.Name] = value{median(d.Reps[m.Name]), m.Unit}
	}
	return res
}

// noteDigest records the first digest and flags any later one that
// differs on a workload whose simulated outcome must repeat exactly.
func (d *detail) noteDigest(spec workloadSpec, r *rep, what string) {
	got := r.dig.String()
	if d.Digest == "" {
		d.Digest = got
	} else if spec.deterministic && got != d.Digest {
		d.Problems = append(d.Problems, fmt.Sprintf("%s: model digest %s differs from %s", what, got, d.Digest))
	}
}

// runTraced yields the per-layer metrics: one untraced repetition as the
// reference, then the same repetition with every layer boundary timed.
func runTraced(spec workloadSpec, rc runCtx, out string, d *detail) result {
	res := result{Metrics: map[string]value{}}
	layer := map[string]float64{}
	fail := func(what string, err error) result {
		d.Problems = append(d.Problems, fmt.Sprintf("%s: %v", what, err))
		res.Attempted++
		res.Failed++
		return res
	}
	var err error
	if layer["wire.cmd_roundtrip_ns"], layer["wire.reply_roundtrip_ns"], layer["wire.bytes_per_req"], err = measureWire(rc.count(microIters)); err != nil {
		return fail("wire codec", err)
	}
	runtime.GC()
	rc.layer = layer
	plainCtx := rc
	plain, err := spec.run(&plainCtx)
	if err != nil {
		return fail("untraced repetition", err)
	}
	d.noteDigest(spec, plain, "untraced repetition")
	if plainCtx.cpuProfile != nil {
		if err := os.WriteFile(filepath.Join(out, "cpu-"+spec.name+".pb.gz"), plainCtx.cpuProfile, 0o644); err != nil {
			return fail("writing the CPU profile", err)
		}
	}
	runtime.GC()
	tr := newTracer()
	rc.tr = tr
	traced, err := spec.run(&rc)
	if err != nil {
		return fail("traced repetition", err)
	}
	d.noteDigest(spec, traced, "traced repetition")
	res.Attempted = plain.reqs + traced.reqs
	res.Failed = plain.failed + traced.failed
	if res.Failed > 0 {
		d.Problems = append(d.Problems, fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	spanFile := filepath.Join(out, "trace-"+spec.name+".json")
	if err := tr.write(spanFile, map[string]interface{}{"workload": spec.name, "seed": rc.seed}); err != nil {
		return fail("writing spans", err)
	}

	plainRate := ratio(float64(plain.reqs), plain.wall.Seconds())
	tracedRate := ratio(float64(traced.reqs), traced.wall.Seconds())
	layer["trace.overhead_share"] = 1 - ratio(tracedRate, plainRate)
	reqs := float64(plain.reqs)
	layer["runtime.allocs_per_req"] = ratio(float64(plain.rt.mallocs), reqs)
	layer["runtime.bytes_per_req"] = ratio(float64(plain.rt.bytes), reqs)
	layer["runtime.gc_cycles"] = float64(plain.rt.gcCycles)
	layer["runtime.gc_pause_ms"] = float64(plain.rt.pauseNS) / 1e6
	layer["runtime.peak_rss_mb"] = peakRSSMB()
	layer["virt.lat_p99_us"] = float64(plain.sub.virtP99) / 1e3
	if spec.name == gridWorkload {
		wall1, speedup, err := measureGrid(rc.count(gridRequests), rc.seed)
		if err != nil {
			return fail("experiment grid", err)
		}
		layer["experiment.grid_wall_s_w1"], layer["experiment.grid_speedup"] = wall1, speedup
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m.Name] = value{layer[m.Name], m.Unit}
	}
	for n := range layer {
		if _, ok := res.Metrics[n]; !ok {
			d.Problems = append(d.Problems, "per-layer metric "+n+" is measured but not declared")
		}
	}
	for n, v := range plain.endToEnd() {
		d.Reps[n] = []float64{v}
	}
	return res
}

// fullPass runs every workload `runs` times, each run in a fresh child
// process so that set-up time and peak memory are that run's own, and
// gathers the results into DIR/result.json. A file an earlier pass left
// there is added to — that is how two commits are measured alternately,
// one seed at a time — but only when it holds the same commit at the same
// run length, and a run of a (workload, seed) the file already has
// replaces the earlier one. Seeds are the outer loop: a workload's runs
// are spread over the whole pass, so a box that drifts slows every
// workload's median alike instead of one workload's every run.
func fullPass(seed uint64, seconds, runs int, traced bool, out string) int {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal("%v", err)
	}
	file := filepath.Join(out, "result.json")
	env := readEnv()
	set, err := readSet(file)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		set = &resultSet{Env: env, Seconds: seconds, Workloads: map[string][]*detail{}}
	case err != nil:
		fatal("%v", err)
	case set.Env.Commit != env.Commit || set.Seconds != seconds:
		fatal("%s holds runs of commit %s at %d s; this is commit %s at %d s: use another -out",
			file, set.Env.Commit, set.Seconds, env.Commit, seconds)
	}
	status := 0
	for i := 0; i < runs; i++ {
		for _, spec := range workloads {
			d, err := runChild(spec.name, seed+uint64(i), seconds, 0, out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
				status = 1
				continue
			}
			set.put(d)
			if traced {
				if _, err := runChild(spec.name, seed+uint64(i), seconds, 1, out); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s traced: %v\n", spec.name, err)
					status = 1
				}
			}
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(file, b, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Println("results:", file)
	return status
}

// runChild runs one workload in a fresh process of this binary, passing
// its output through, and returns the record the child wrote.
func runChild(name string, seed uint64, seconds, trace int, out string) (*detail, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", out)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		// The JSON result line is for the driver; the named lines above it
		// already say the same.
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	runErr := cmd.Wait()
	file := filepath.Join(out, fmt.Sprintf("run-%s-s%d-t%d.json", name, seed, trace))
	b, err := os.ReadFile(file)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	d := new(detail)
	if err := json.Unmarshal(b, d); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if runErr != nil {
		return d, fmt.Errorf("run failed its checks: %w", runErr)
	}
	return d, nil
}
