package server_test

import (
	"testing"

	"espftl/internal/core"
	"espftl/internal/ftl"
	"espftl/internal/ftltest"
	"espftl/internal/nand"
	"espftl/internal/server"
	"espftl/internal/workload"
)

// TestServedCrashRecovery pulls the plug on a device while it is being
// served over TCP: the in-flight command fails, every later command is
// refused or errored, the drain still completes — and the remounted FTL
// must satisfy the full PR-3 recovery contract against a reference model
// mirrored from exactly what the server acknowledged to the client.
func TestServedCrashRecovery(t *testing.T) {
	const sectors = 512
	env := ftltest.CrashEnv{
		Geometry: ftltest.TinyGeometry(),
		Sectors:  sectors,
		Seed:     42,
		Factory: func(dev *nand.Device) (ftl.FTL, error) {
			cfg := core.DefaultConfig(sectors)
			cfg.GCReserveBlocks = 3
			cfg.BufferSectors = 32
			return core.New(dev, cfg)
		},
	}
	dev, inj := env.NewDevice(t)
	f, err := env.Factory(dev)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Stacks: []server.ShardStack{{Device: dev, FTL: f, LogicalSectors: sectors}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Arm the cut a couple hundred device operations past the mount scan,
	// well inside the client's stream.
	cut := dev.OpCount() + 200
	inj.ArmSPO(cut, true)

	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	c, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The proven crash mix, translated to wire requests. The client runs
	// at depth 1: the model is mirrored from the reply stream, and reply
	// order equals FTL application order only when one command is in
	// flight at a time (the scheduler applies in dispatch order, but
	// completions — an immediate error versus an earlier write still
	// riding out its flash latency — can invert at higher depths).
	script := ftltest.MixedScript(sectors, int(c.Welcome.PageSectors), 400, 7)
	var reqs []workload.Request
	for _, op := range script {
		switch op.Kind {
		case ftltest.CrashWrite:
			reqs = append(reqs, workload.Request{Op: workload.OpWrite, LSN: op.LSN, Sectors: op.Sectors, Sync: op.Sync})
		case ftltest.CrashRead:
			reqs = append(reqs, workload.Request{Op: workload.OpRead, LSN: op.LSN, Sectors: op.Sectors})
		case ftltest.CrashTrim:
			reqs = append(reqs, workload.Request{Op: workload.OpTrim, LSN: op.LSN, Sectors: op.Sectors})
		case ftltest.CrashFlush:
			reqs = append(reqs, workload.Request{Op: workload.OpFlush})
		}
	}

	// Mirror the acknowledged stream into the model up to the first
	// power-loss error — the command power caught in flight, which may
	// have left any prefix on flash. Everything after it is ignored: the
	// dead device admits no flash traffic, so later replies (including
	// the RAM-only writes and empty-buffer flushes the FTL still acks)
	// cannot move the on-flash state the recovery will see. This is the
	// same stop-at-the-cut contract ftltest's serial replay uses.
	m := ftltest.NewModel(sectors)
	dead := false
	cr, err := c.RunRequests(reqs, 1, func(r server.Reply) {
		if dead {
			return
		}
		if r.Rep.Status != 0 {
			dead = true
			if r.Req.Op == workload.OpWrite {
				m.CrashWrite(r.Req.LSN, r.Req.Sectors)
			}
			return
		}
		switch r.Req.Op {
		case workload.OpWrite:
			m.Write(r.Req.LSN, r.Req.Sectors, r.Req.Sync)
		case workload.OpTrim:
			m.Trim(r.Req.LSN, r.Req.Sectors)
		case workload.OpFlush:
			m.Flush()
		}
	})
	if err != nil {
		t.Fatalf("client run: %v", err)
	}
	if inj.SPOArmed() {
		t.Fatalf("power never died: %d device ops, armed at %d", dev.OpCount(), cut)
	}
	if cr.Errors == 0 {
		t.Fatal("no client-visible errors despite a power cut mid-stream")
	}
	if dev.Alive() {
		t.Fatal("device still alive after SPO fired")
	}

	// Drain must survive a dead device: every accepted command completes
	// (with errors), nothing wedges.
	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shutdown on dead device: %v", err)
	}
	if rep.Submitted != rep.Completed {
		t.Fatalf("drain dropped commands: submitted %d completed %d", rep.Submitted, rep.Completed)
	}

	// Power back on and run the full PR-3 recovery contract: OOB-only
	// mount, invariants, model-acceptable versions, readability, and
	// acceptance of new work.
	ftltest.VerifyRecovered(t, env, dev, m, cut)
}
