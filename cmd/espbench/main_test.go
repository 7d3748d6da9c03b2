package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"espftl/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// goldenIDs are the quick-device summary tables pinned by golden files:
// cheap to regenerate, together covering the workload pipeline (table1)
// and the retention model (fig5).
var goldenIDs = []string{"fig5", "table1"}

// goldenOptions is the fixed scale the goldens were recorded at.
var goldenOptions = experiment.Options{Requests: 2000, Seed: 1}

// tolerance is the relative band numeric cells may drift within before the
// test fails: wide enough to survive benign policy tuning, tight enough to
// catch a broken experiment (a WAF of 2.0 where 1.0 is recorded, a table
// losing a row). absFloor keeps near-zero cells from demanding exact zero.
const (
	tolerance = 0.10
	absFloor  = 0.05
)

func renderTable(t *testing.T, id string) string {
	t.Helper()
	for _, e := range experiment.All() {
		if e.ID != id {
			continue
		}
		tbl, err := e.Fn(goldenOptions)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return tbl.Markdown()
	}
	t.Fatalf("no experiment with id %q", id)
	return ""
}

// TestGoldenTables renders each pinned summary table and compares it
// against testdata/<id>.golden.md: layout and text cells exactly, numeric
// cells within the tolerance band. Regenerate with
//
//	go test ./cmd/espbench -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			got := renderTable(t, id)
			path := filepath.Join("testdata", id+".golden.md")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to record): %v", err)
			}
			compareGolden(t, string(want), got)
		})
	}
}

// compareGolden diffs two renderings line by line and token by token.
func compareGolden(t *testing.T, want, got string) {
	t.Helper()
	wl := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gl := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(wl) != len(gl) {
		t.Fatalf("line count changed: golden %d, got %d\n--- got ---\n%s", len(wl), len(gl), got)
	}
	for i := range wl {
		wt, gt := tokens(wl[i]), tokens(gl[i])
		if len(wt) != len(gt) {
			t.Errorf("line %d token count changed:\ngolden: %s\ngot:    %s", i+1, wl[i], gl[i])
			continue
		}
		for j := range wt {
			if !tokenMatches(wt[j], gt[j]) {
				t.Errorf("line %d token %q: golden %q, got %q\ngolden: %s\ngot:    %s",
					i+1, gt[j], wt[j], gt[j], wl[i], gl[i])
			}
		}
	}
}

// tokens splits a rendered line into comparable units: markdown pipes and
// whitespace are structure, everything between is a cell word.
func tokens(line string) []string {
	return strings.FieldsFunc(line, func(r rune) bool {
		return r == ' ' || r == '|' || r == '\t'
	})
}

// tokenMatches compares one token: numbers within the tolerance band,
// anything else exactly.
func tokenMatches(want, got string) bool {
	if want == got {
		return true
	}
	w, wok := parseNumeric(want)
	g, gok := parseNumeric(got)
	if !wok || !gok {
		return false
	}
	diff := w - g
	if diff < 0 {
		diff = -diff
	}
	scale := w
	if scale < 0 {
		scale = -scale
	}
	if gs := g; gs < 0 && -gs > scale {
		scale = -gs
	} else if g > scale {
		scale = g
	}
	return diff <= tolerance*scale+absFloor
}

// parseNumeric extracts the numeric value of a cell token, tolerating the
// table styles' percent signs and trailing units.
func parseNumeric(s string) (float64, bool) {
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// TestSelectIDs pins -run's id check: every listed id must be a known
// experiment, and one typo rejects the whole list (naming it) instead of
// silently printing the rest.
func TestSelectIDs(t *testing.T) {
	valid := []string{"fig1", "table1", "abl-gc"}
	for _, tc := range []struct {
		run     string
		want    []string
		wantErr string
	}{
		{run: "", want: valid},
		{run: "fig1, abl-gc", want: []string{"fig1", "abl-gc"}},
		{run: "fig1,tabel1", wantErr: `"tabel1"`},
		{run: "nope", wantErr: `"nope"`},
		{run: "fig1,", wantErr: `""`},
	} {
		got, err := selectIDs(tc.run, valid)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "fig1, table1, abl-gc") {
				t.Errorf("selectIDs(%q): err %v, want one naming %s and listing the valid ids", tc.run, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectIDs(%q): %v", tc.run, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("selectIDs(%q) = %v, want %v", tc.run, got, tc.want)
		}
		for _, id := range tc.want {
			if !got[id] {
				t.Errorf("selectIDs(%q) misses %s", tc.run, id)
			}
		}
	}
}
