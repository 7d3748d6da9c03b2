package experiment

import "fmt"

// The paper's evaluation is one grid of runs seen through many tables:
// Fig. 2(b) reads Fig. 2(a)'s FGM cells, Fig. 8(b), Table 1 and
// ext-lifetime read Fig. 8(a)'s. Each Experiment therefore only declares
// the runs its table needs and renders the table from their outcomes;
// Regenerate runs every distinct run of a selection once and then renders.

// Experiment is one table of the evaluation.
type Experiment struct {
	ID  string
	Doc string
	// cells declares the runs the table reads, in the order render
	// expects them; nil for a table that runs nothing.
	cells func(Options) []RunConfig
	// render builds the table, bar its ID, from the outcomes of cells,
	// index-aligned. It treats the results as read-only: other tables may
	// read the same ones (renders run serially, so a histogram's lazily
	// rebuilt percentile cache is safe to touch).
	render func(Options, []Outcome) (*Table, error)
}

// Outcome is what one run produced: its result, or the error it ended on.
type Outcome struct {
	Result *Result
	Err    error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		fig1, fig2a, fig2b, fig5, fig8a, fig8b, table1,
		ablRegion, ablHotCold, ablRetention, ablFault, ablSched, ablGC, ablLifetime,
		extSubread, extLifetime, extLifetime2, extLatency,
	}
}

// Regenerate renders the tables of exps, in order. It applies o's
// defaults, collects every experiment's cells, runs each distinct one once
// on the worker pool (see runCells), and then renders the tables serially.
// tables[i] is nil exactly when errs[i], which names exps[i].ID, is not.
func Regenerate(exps []Experiment, o Options) (tables []*Table, errs []error) {
	o = o.withDefaults()
	var cells []RunConfig
	counts := make([]int, len(exps))
	for i, e := range exps {
		if e.cells != nil {
			c := e.cells(o)
			cells, counts[i] = append(cells, c...), len(c)
		}
	}
	outs := runCells(cells)
	tables, errs = make([]*Table, len(exps)), make([]error, len(exps))
	for i, e := range exps {
		n := counts[i]
		if t, err := e.render(o, outs[:n:n]); err != nil {
			errs[i] = fmt.Errorf("%s: %w", e.ID, err)
		} else {
			t.ID, tables[i] = e.ID, t
		}
		outs = outs[n:]
	}
	return tables, errs
}

// regenerateOne renders e's table alone.
func regenerateOne(e Experiment, o Options) (*Table, error) {
	tables, errs := Regenerate([]Experiment{e}, o)
	return tables[0], errs[0]
}

// runCells runs each distinct config of cells once, on up to Workers()
// goroutines, and returns every cell's outcome, index-aligned. Every run
// completes whatever its neighbours do.
func runCells(cells []RunConfig) []Outcome {
	runs, slot := distinct(cells)
	ran := make([]Outcome, len(runs))
	_ = forEach(len(runs), func(i int) error {
		ran[i].Result, ran[i].Err = Run(runs[i])
		return nil
	})
	outs := make([]Outcome, len(cells))
	for i, j := range slot {
		outs[i] = ran[j]
	}
	return outs
}

// distinct returns the distinct configs of cells in order of first
// appearance, and for each cell the index of its config among them.
func distinct(cells []RunConfig) (runs []RunConfig, slot []int) {
	index := make(map[string]int, len(cells))
	slot = make([]int, len(cells))
	for i, c := range cells {
		k := cellKey(c)
		j, ok := index[k]
		if !ok {
			j = len(runs)
			index[k] = j
			runs = append(runs, c)
		}
		slot[i] = j
	}
	return runs, slot
}

// cellKey encodes every field of c after defaults, so two cells share a
// run exactly when Run would be handed equal configs. %#v prints slices —
// the profile's size lists, a trace — element by element, but a pointer as
// its address, so the fault profile is appended by value.
// TestCellKeyCoversConfig fails if RunConfig gains another reference field.
func cellKey(c RunConfig) string {
	c = c.withDefaults()
	fp := c.FaultProfile
	if fp == nil {
		return fmt.Sprintf("%#v", c)
	}
	c.FaultProfile = nil
	return fmt.Sprintf("%#v %#v", c, *fp)
}

// onResults adapts a render that reads only successful runs: it fails on the
// lowest-index error among the table's cells, as a serial loop would.
func onResults(render func(Options, []*Result) (*Table, error)) func(Options, []Outcome) (*Table, error) {
	return func(o Options, outs []Outcome) (*Table, error) {
		results := make([]*Result, len(outs))
		for i, out := range outs {
			if out.Err != nil {
				return nil, out.Err
			}
			results[i] = out.Result
		}
		return render(o, results)
	}
}
