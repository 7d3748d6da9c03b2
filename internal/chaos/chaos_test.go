package chaos_test

import (
	"fmt"
	"testing"

	"espftl/internal/chaos"
	"espftl/internal/wire"
)

// TestCampaign runs short seeded campaigns end to end at one and three
// shards: fault storm through a tearing proxy with noise clients, watchdog
// fence/recover and STAT rejoin, grown-bad-block storm to read-only, drain
// with the differential model check on every tenant, and an SPO cut with
// remount and re-serve. At three shards a cold tenant on shard 1 and a
// wide tenant striped over the fleet serve throughout: shard 0's fence and
// read-only breaker must stay shard-scoped (cold sees only OK within a
// bounded p99). The campaign's own invariants are the assertions; here we
// check it completes and that its summary shows every degraded mode was
// client-visible.
func TestCampaign(t *testing.T) {
	for _, tc := range []struct {
		shards int
		seeds  []uint64
	}{
		{1, []uint64{2, 41}},
		{3, []uint64{3, 57}},
	} {
		tc := tc
		t.Run(fmt.Sprintf("shards-%d", tc.shards), func(t *testing.T) {
			for _, seed := range tc.seeds {
				seed := seed
				t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
					t.Parallel()
					res, err := chaos.Run(chaos.Config{Seed: seed, Ops: 300, Shards: tc.shards, Logf: t.Logf})
					if err != nil {
						t.Fatal(err)
					}
					if res.StormOps != 300 {
						t.Errorf("storm completed %d of 300 ops", res.StormOps)
					}
					if res.ShedReadOnly == 0 {
						t.Error("read-only breaker never shed")
					}
					if res.Statuses[wire.StatusFenced] == 0 {
						t.Error("no client ever saw NAMESPACE_FENCED")
					}
					if res.Statuses[wire.StatusReadOnly] == 0 {
						t.Error("no client ever saw READ_ONLY")
					}
					if siblings := tc.shards > 1; siblings != (res.ColdOps > 0 && res.WideOps > 0) {
						t.Errorf("%d shards: cold %d ops, wide %d ops", tc.shards, res.ColdOps, res.WideOps)
					}
					for st := range res.Statuses {
						if !wire.KnownStatus(st) {
							t.Errorf("untyped status %d reached a client", st)
						}
					}
					t.Logf("campaign: %d storm ops, %d reconnects, %d retries, cold %d (p99 %v), wide %d ops, statuses %v, mount %+v",
						res.StormOps, res.Reconnects, res.Retries, res.ColdOps, res.ColdP99, res.WideOps, res.Statuses, res.MountReport)
				})
			}
		})
	}
}
