// Command tracegen writes synthetic I/O traces for the five benchmark
// profiles (or a parameterized sweep) in the text trace format, which
// espsim replays against a simulated drive and espclient over the wire
// protocol.
//
// Example:
//
//	tracegen -profile varmail -n 100000 -o varmail.trace
//	tracegen -rsmall 0.8 -rsynch 1 -n 50000 -o sweep.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"espftl/internal/trace"
	"espftl/internal/workload"
)

func main() {
	profile := flag.String("profile", "varmail", "profile: sysbench, varmail, postmark, ycsb, tpc-c")
	rsmall := flag.Float64("rsmall", -1, "use the sweep profile with this r_small")
	rsynch := flag.Float64("rsynch", 1.0, "r_synch for the sweep profile")
	n := flag.Int("n", 100000, "number of requests")
	sectors := flag.Int64("sectors", 1<<20, "logical space in 4-KB sectors")
	seed := flag.Uint64("seed", 1, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	prof, err := workload.Select(*profile, *rsmall, *rsynch)
	if err != nil {
		fatal(err)
	}
	gen, err := workload.NewSynthetic(prof, *sectors, 4, *seed)
	if err != nil {
		fatal(err)
	}
	reqs := trace.Generate(gen, *n)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteText(w, reqs); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d requests (%s)\n", len(reqs), prof.Name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
