package bench

import (
	"strings"
	"testing"

	"skyloft/internal/stats"
)

func TestLookupFigure(t *testing.T) {
	want := []string{"observed", "5", "6", "7a", "7bc", "8a", "8b", "table6", "table7", "switch", "table4"}
	if got := FigureIDs(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("FigureIDs = %v, want %v", got, want)
	}
	seen := map[string]bool{}
	for _, f := range Figures() {
		if seen[f.ID] {
			t.Errorf("duplicate figure ID %q", f.ID)
		}
		seen[f.ID] = true
		if f.Title == "" || f.Run == nil {
			t.Errorf("figure %q: empty title or nil runner", f.ID)
		}
	}
	for _, tc := range []struct {
		id string
		ok bool
	}{
		{"observed", true}, {"5", true}, {"7bc", true}, {"8b", true}, {"table4", true},
		{"7", false}, {"9", false}, {"table5", false}, {"7A", false}, {"", false}, {"quantum", false},
	} {
		f, err := LookupFigure(tc.id)
		if tc.ok {
			if err != nil || f.ID != tc.id {
				t.Errorf("LookupFigure(%q) = %q, %v", tc.id, f.ID, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("LookupFigure(%q) found %q, want an error", tc.id, f.ID)
			continue
		}
		if !strings.Contains(err.Error(), strings.Join(want, ", ")) {
			t.Errorf("LookupFigure(%q) error %q does not list the valid IDs", tc.id, err)
		}
	}
}

func TestSLOSummarize(t *testing.T) {
	table := func(cols []string, rows map[float64][]float64) *stats.Table {
		tbl := stats.NewTable("t", "load_krps", cols...)
		for x, vals := range rows {
			row := map[string]float64{}
			for i, v := range vals {
				if v >= 0 { // -1 leaves the cell out
					row[cols[i]] = v
				}
			}
			tbl.Add(x, row)
		}
		return tbl
	}
	for _, tc := range []struct {
		name string
		slo  SLO
		tbl  *stats.Table
		want []SLOLoad
	}{{
		// Fig. 7a: p99 <= 200 µs, relative to skyloft. ghost crosses the SLO
		// at 200 and dips back under at 300, which counts; a cell exactly at
		// the SLO meets it; a missing cell is skipped.
		name: "fig7a",
		slo:  fig7aSLO,
		tbl: table([]string{"skyloft", "ghost", "linux-cfs"}, map[float64][]float64{
			100: {10, 50, 100},
			200: {20, 210, 900},
			300: {150, 190, -1},
			400: {200, 500, 2000},
		}),
		want: []SLOLoad{{"skyloft", 400, 1}, {"ghost", 300, 0.75}, {"linux-cfs", 100, 0.25}},
	}, {
		// Fig. 8b: 0 < slowdown <= 50, relative to shenango, which never
		// meets it: every ratio is 0. A zero cell (nothing completed) does
		// not meet the SLO.
		name: "fig8b-zero-baseline",
		slo:  fig8bSLO,
		tbl: table([]string{"skyloft-5us", "shenango"}, map[float64][]float64{
			10: {0, 60},
			20: {10, 0},
			30: {50, 80},
			40: {51, 0},
		}),
		want: []SLOLoad{{"skyloft-5us", 30, 0}, {"shenango", 0, 0}},
	}, {
		name: "fig8b",
		slo:  fig8bSLO,
		tbl: table([]string{"skyloft-5us", "shenango"}, map[float64][]float64{
			10: {2, 4},
			20: {5, 18},
			30: {40, 120},
		}),
		want: []SLOLoad{{"skyloft-5us", 30, 1.5}, {"shenango", 20, 1}},
	}} {
		got := tc.slo.Summarize(tc.tbl)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d columns, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: column %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestSLOWrite(t *testing.T) {
	tbl := stats.NewTable("t", "load_krps", "skyloft-5us", "skyloft-30us", "shenango")
	tbl.Add(18.9205, map[string]float64{"skyloft-5us": 4.6, "skyloft-30us": 5.1, "shenango": 17.7})
	tbl.Add(23.6506, map[string]float64{"skyloft-5us": 6.7, "skyloft-30us": 28.7, "shenango": 120.8})
	tbl.Add(37.841, map[string]float64{"skyloft-5us": 36.4, "skyloft-30us": 145.4, "shenango": 647})
	var b strings.Builder
	if err := fig8bSLO.Write(&b, tbl); err != nil {
		t.Fatal(err)
	}
	want := "# max load with p99.9 slowdown <= 50x (krps, relative to shenango):\n" +
		"#   skyloft-5us              37.8  (2.00x)\n" +
		"#   skyloft-30us             23.7  (1.25x)\n" +
		"#   shenango                 18.9  (1.00x)\n"
	if b.String() != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", b.String(), want)
	}
}
