package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkDef is the part of BENCHMARK.json -diff needs.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares cand against base for a metric whose better direction
// is "lower" or "higher", allowing bound as a share of base.
func verdict(base, cand, bound float64, better string) string {
	change := ratio(cand-base, base)
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "regressed"
	case change < -bound:
		return "improved"
	}
	return "unchanged"
}

// runDiff prints one row per workload and end-to-end metric of two -json
// reports and returns 1 if any regressed, failed_frac rose, or a
// baseline metric is missing from the candidate.
func runDiff(boundsPath, basePath, candPath string, stdout, stderr io.Writer) int {
	var def benchmarkDef
	var base, cand report
	for _, in := range []struct {
		path string
		v    any
	}{{boundsPath, &def}, {basePath, &base}, {candPath, &cand}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(stderr, "hostbench: %v\n", err)
			return 2
		}
	}
	if len(def.EndToEnd) == 0 {
		fmt.Fprintf(stderr, "hostbench: %s lists no end_to_end metrics\n", boundsPath)
		return 2
	}
	regressions := 0
	row := func(workload, metric string, b, c any, change, v string) {
		fmt.Fprintf(stdout, "%-11s %-18s %14v %14v %8s  %s\n", workload, metric, b, c, change, v)
	}
	row("workload", "metric", "base", "candidate", "change", "verdict")
	for _, bw := range base.Workloads {
		var cw *result
		for _, w := range cand.Workloads {
			if w.Name == bw.Name {
				cw = w
			}
		}
		if cw == nil {
			row(bw.Name, "-", "", "missing", "", "regressed")
			regressions++
			continue
		}
		v := "unchanged"
		if cw.FailedFrac > bw.FailedFrac {
			v = "regressed"
			regressions++
		} else if cw.FailedFrac < bw.FailedFrac {
			v = "improved"
		}
		row(bw.Name, "failed_frac", bw.FailedFrac, cw.FailedFrac, "", v)
		for _, m := range def.EndToEnd {
			bm, bok := findMetric(bw.Metrics, m.Name)
			cm, cok := findMetric(cw.Metrics, m.Name)
			switch {
			case !bok:
				continue
			case !cok:
				row(bw.Name, m.Name, bm.Value, "missing", "", "regressed")
				regressions++
				continue
			}
			v := verdict(bm.Value, cm.Value, m.Bound, m.Better)
			if v == "regressed" {
				regressions++
			}
			row(bw.Name, m.Name, fmt.Sprintf("%.4g", bm.Value), fmt.Sprintf("%.4g", cm.Value),
				fmt.Sprintf("%+.1f%%", 100*ratio(cm.Value-bm.Value, bm.Value)), v)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "no regressions")
	return 0
}

func findMetric(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
