package nand

import (
	"math/rand"
	"testing"

	"espftl/internal/sim"
)

// The device keeps its drain horizon and chip busy total as running
// totals and journals what a transaction touched. These are the linear
// scans they replaced, kept as references: a FreeAt snapshot of every
// resource (chips first, then channel buses) diffed around a transaction,
// the latest FreeAt over all resources, and the busy time summed over the
// chips.

func refFreeTimes(d *Device) []sim.Time {
	out := make([]sim.Time, len(d.tl))
	for i, tl := range d.tl {
		out[i] = tl.FreeAt()
	}
	return out
}

func refDiff(before, after []sim.Time) (fanout int, end sim.Time) {
	for i := range after {
		if after[i] != before[i] {
			fanout++
			end = max(end, after[i])
		}
	}
	return fanout, end
}

func refDrain(d *Device) sim.Time {
	m := d.clock.Now()
	for _, tl := range d.tl {
		m = max(m, tl.FreeAt())
	}
	return m
}

func refBusy(d *Device) sim.Duration {
	var sum sim.Duration
	for _, tl := range d.tl[:len(d.chips)] {
		sum += tl.Busy()
	}
	return sum
}

// opMix drives a random mix of device operations: page programs, subpage
// program runs, page and subpage reads, erases at several depths, OOB
// scans, and clock jumps of weeks that age programmed data far enough for
// read-retry to fire.
type opMix struct {
	t      *testing.T
	d      *Device
	rng    *rand.Rand
	page   []int // per block: next page to program
	sub    []int // per block: next subpage slot of that page
	stamps []Stamp
}

func newOpMix(t *testing.T, d *Device, seed int64) *opMix {
	g := d.Geometry()
	return &opMix{t: t, d: d, rng: rand.New(rand.NewSource(seed)),
		page: make([]int, g.TotalBlocks()), sub: make([]int, g.TotalBlocks()),
		stamps: make([]Stamp, g.SubpagesPerPage)}
}

var mixDepths = []EraseDepth{DepthFull, 0.75, 0.5, MinEraseDepth}

func (m *opMix) erase(b BlockID) {
	if _, err := m.d.EraseAt(b, mixDepths[m.rng.Intn(len(mixDepths))]); err != nil {
		m.t.Fatal(err)
	}
	m.page[b], m.sub[b] = 0, 0
}

func (m *opMix) step() {
	d, g, rng := m.d, m.d.Geometry(), m.rng
	b := BlockID(rng.Intn(g.TotalBlocks()))
	for i := range m.stamps {
		m.stamps[i] = Stamp{LSN: int64(rng.Intn(1 << 20)), Version: 1}
	}
	switch p := rng.Intn(100); {
	case p < 25, p < 45 && m.sub[b] == 0:
		if m.page[b] == g.PagesPerBlock {
			m.erase(b)
		}
		pg := g.PageOf(b, m.page[b])
		if m.sub[b] == 0 && p < 25 {
			if _, err := d.ProgramPage(pg, m.stamps); err != nil {
				m.t.Fatal(err)
			}
			m.page[b]++
			return
		}
		k := 1 + rng.Intn(g.SubpagesPerPage-m.sub[b])
		if _, err := d.ProgramSubpageRun(pg, m.sub[b], m.stamps[:k]); err != nil {
			m.t.Fatal(err)
		}
		if m.sub[b] += k; m.sub[b] == g.SubpagesPerPage {
			m.page[b], m.sub[b] = m.page[b]+1, 0
		}
	case p < 45:
		// Finish the partly programmed page with one more pass.
		if _, err := d.ProgramSubpageRun(g.PageOf(b, m.page[b]), m.sub[b], m.stamps[:g.SubpagesPerPage-m.sub[b]]); err != nil {
			m.t.Fatal(err)
		}
		m.page[b], m.sub[b] = m.page[b]+1, 0
	case p < 65:
		// Unprogrammed and retention-expired slots fail the read; the
		// sense is charged to the chip all the same.
		pg := g.PageOf(b, rng.Intn(g.PagesPerBlock))
		d.ReadSubpage(g.SubpageOf(pg, rng.Intn(g.SubpagesPerPage)))
	case p < 80:
		if _, _, err := d.ReadPage(g.PageOf(b, rng.Intn(g.PagesPerBlock))); err != nil {
			m.t.Fatal(err)
		}
	case p < 88:
		m.erase(b)
	case p < 96:
		if _, err := d.ScanPageOOB(g.PageOf(b, rng.Intn(g.PagesPerBlock))); err != nil {
			m.t.Fatal(err)
		}
	default:
		d.Clock().Advance(sim.Duration(rng.Intn(8)) * Month / 4)
	}
}

// After every transaction of a random op mix, the journal's (fanout, end)
// equals the snapshot diff, the journal holds exactly the resources whose
// FreeAt moved (so closing it costs what the transaction touched), and
// DrainTime and TotalChipBusy equal the full scans — on two geometries,
// with read-retry on, and with operations outside any transaction too.
func TestJournalMatchesScans(t *testing.T) {
	geos := []Geometry{
		tinyGeometry(),
		{Channels: 3, ChipsPerChannel: 3, BlocksPerChip: 6, PagesPerBlock: 4, SubpagesPerPage: 8, SubpageBytes: 2048},
	}
	for gi, geo := range geos {
		cfg := DefaultConfig()
		cfg.Geometry = geo
		cfg.Retry = true
		d, err := NewDevice(cfg, sim.NewClock(0))
		if err != nil {
			t.Fatal(err)
		}
		m := newOpMix(t, d, int64(gi+1))
		for i := 0; i < 4000; i++ {
			journaled := i%5 != 0
			before := refFreeTimes(d)
			if journaled {
				d.BeginTxn()
			}
			for k := 1 + m.rng.Intn(3); k > 0; k-- {
				m.step()
			}
			wantF, wantE := refDiff(before, refFreeTimes(d))
			if journaled {
				touched := len(d.txn.touched)
				fanout, end := d.EndTxn()
				if fanout != wantF || end != wantE {
					t.Fatalf("%v op %d: journal (fanout %d, end %v), snapshot diff (%d, %v)", geo, i, fanout, end, wantF, wantE)
				}
				if touched != fanout {
					t.Fatalf("%v op %d: journal visited %d resources, %d of them moved", geo, i, touched, fanout)
				}
			} else if len(d.txn.touched) != 0 {
				t.Fatalf("%v op %d: %d resources journaled outside a transaction", geo, i, len(d.txn.touched))
			}
			if got, want := d.DrainTime(), refDrain(d); got != want {
				t.Fatalf("%v op %d: DrainTime %v, scan %v", geo, i, got, want)
			}
			if got, want := d.TotalChipBusy(), refBusy(d); got != want {
				t.Fatalf("%v op %d: TotalChipBusy %v, scan %v", geo, i, got, want)
			}
		}
		c := d.Counters()
		if c.ReadRetries == 0 || c.ShallowErases == 0 || c.OOBScans == 0 || c.SubPrograms == 0 || c.PagePrograms == 0 || c.SubpageReads+c.PageReads == 0 {
			t.Errorf("%v: the mix missed an op kind: %+v", geo, c)
		}
	}
}

// A journaled program — BeginTxn, the program, EndTxn — allocates nothing.
func TestJournaledProgramAllocs(t *testing.T) {
	d := allocDevice(t)
	g := d.Geometry()
	stamps := []Stamp{{LSN: 1, Version: 1}, {LSN: 2, Version: 1}, {LSN: 3, Version: 1}, {LSN: 4, Version: 1}}
	pi, bi := 0, 0
	avg := testing.AllocsPerRun(200, func() {
		d.BeginTxn()
		if _, err := d.ProgramPage(g.PageOf(BlockID(bi), pi), stamps); err != nil {
			t.Fatal(err)
		}
		if fanout, _ := d.EndTxn(); fanout != 2 {
			t.Fatalf("page program moved %d resources, want its chip and channel", fanout)
		}
		if pi++; pi == g.PagesPerBlock {
			pi, bi = 0, bi+1
		}
	})
	if avg != 0 {
		t.Errorf("journaled ProgramPage allocates %.1f objects per op, want 0", avg)
	}
}
