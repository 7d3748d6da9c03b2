package workload

import (
	"fmt"
	"strings"
)

// The five benchmark profiles of the paper's evaluation (§5), calibrated
// so that the workload statistics the paper reports emerge from the
// generator:
//
//   - Table 1 small-write percentages: Sysbench 99.7 %, Varmail 95.3 %,
//     Postmark 99.9 %, YCSB 19.3 %, TPC-C 11.8 %;
//   - "synchronous small writes account for a considerable proportion
//     (more than 95 %) of the total writes" for Sysbench, Varmail and
//     Postmark;
//   - YCSB and TPC-C have "a small proportion (less than 20 %) of 4-KB
//     writes" — their volume is log-structured large flushes (Cassandra
//     SSTables, OLTP checkpoints) with a synchronous small commit log on
//     the side.
//
// The locality parameters encode the papers' shared observation (also in
// the hybrid-SSD work the paper cites) that small writes have much higher
// update frequency than large ones.

// Sysbench models the sysbench fileio random-write system benchmark:
// almost exclusively small synchronous writes over a moderately hot file
// set.
func Sysbench() Profile {
	return Profile{
		Name:             "Sysbench",
		SmallRatio:       0.997,
		SyncRatio:        0.98,
		ReadRatio:        0.0,
		SmallSizes:       []int{1},
		LargeSizes:       []int{4, 8},
		LargeAlignedProb: 0.9,
		LargeSeqProb:     0.2,
		HotSpace:         0.005,
		HotAccess:        0.99,
	}
}

// Varmail models the filebench varmail personality: a mail server doing
// create/append/fsync cycles — small synchronous appends with high
// temporal locality plus occasional larger deliveries.
func Varmail() Profile {
	return Profile{
		Name:             "Varmail",
		SmallRatio:       0.953,
		SyncRatio:        0.99,
		ReadRatio:        0.20,
		SmallSizes:       []int{1},
		LargeSizes:       []int{4, 8},
		LargeAlignedProb: 0.9,
		LargeSeqProb:     0.2,
		HotSpace:         0.005,
		HotAccess:        0.99,
	}
}

// Postmark models the postmark small-file mail benchmark: tiny
// transactions on a large pool of small files, nearly all writes small
// and synchronous.
func Postmark() Profile {
	return Profile{
		Name:             "Postmark",
		SmallRatio:       0.999,
		SyncRatio:        0.96,
		ReadRatio:        0.10,
		SmallSizes:       []int{1, 1, 2},
		LargeSizes:       []int{4},
		LargeAlignedProb: 0.8,
		LargeSeqProb:     0.1,
		HotSpace:         0.006,
		HotAccess:        0.97,
	}
}

// YCSB models YCSB running on Cassandra: the flash traffic is dominated by
// large sequential SSTable flushes and compactions; the small-write tail
// is the synchronous commit log.
func YCSB() Profile {
	return Profile{
		Name:             "YCSB",
		SmallRatio:       0.193,
		SyncRatio:        0.90,
		ReadRatio:        0.30,
		SmallSizes:       []int{1},
		LargeSizes:       []int{8, 16, 32},
		LargeAlignedProb: 0.95,
		LargeSeqProb:     0.8,
		HotSpace:         0.002,
		HotAccess:        0.95,
	}
}

// TPCC models a TPC-C style OLTP engine: mostly page-sized buffer-pool
// checkpoint writes plus a synchronous write-ahead log tail.
func TPCC() Profile {
	return Profile{
		Name:             "TPC-C",
		SmallRatio:       0.118,
		SyncRatio:        0.70,
		ReadRatio:        0.40,
		SmallSizes:       []int{1, 2},
		LargeSizes:       []int{8, 16},
		LargeAlignedProb: 0.9,
		LargeSeqProb:     0.5,
		HotSpace:         0.003,
		HotAccess:        0.97,
	}
}

// Benchmarks returns the paper's five evaluation profiles in presentation
// order.
func Benchmarks() []Profile {
	return []Profile{Sysbench(), Varmail(), Postmark(), YCSB(), TPCC()}
}

// Select resolves the tools' -profile/-rsmall/-rsynch flags: with rSmall
// >= 0 the sweep profile, otherwise the benchmark profile whose name
// matches name case-insensitively.
func Select(name string, rSmall, rSynch float64) (Profile, error) {
	if rSmall >= 0 {
		return SweepProfile(rSmall, rSynch), nil
	}
	for _, p := range Benchmarks() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("unknown profile %q", name)
}
