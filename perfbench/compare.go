package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// savedRun is one run's output read back from a file.
type savedRun struct {
	file   string
	header runHeader
	result result
}

// readRuns reads the saved standard output of the untraced runs in dir. It
// also returns how many files it skipped because they are not run outputs
// (saved standard error, logs).
func readRuns(dir string) (runs []savedRun, skipped int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		run, err := parseRun(data)
		if err != nil {
			skipped++
			continue
		}
		run.file = path
		if run.header.Run.Trace == 0 {
			runs = append(runs, run)
		}
	}
	if len(runs) == 0 {
		return nil, skipped, fmt.Errorf("%s holds no untraced run results", dir)
	}
	return runs, skipped, nil
}

// parseRun reads a run's output: its first line is the header, its last
// line the result.
func parseRun(data []byte) (savedRun, error) {
	var run savedRun
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return run, err
	}
	if len(lines) < 2 {
		return run, fmt.Errorf("not a perfbench run output")
	}
	if err := json.Unmarshal([]byte(lines[0]), &run.header); err != nil || run.header.Run.Workload == "" {
		return run, fmt.Errorf("first line is not a perfbench run header")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
		return run, fmt.Errorf("last line is not a perfbench result: %w", err)
	}
	return run, nil
}

// specMetric is an end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) ([]specMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// minPairs is the number of seed-paired runs a comparison needs before it
// rules on a (workload, metric).
const minPairs = 10

// decide applies the comparison rule to one (workload, metric). With fewer
// than minPairs seed pairs it is unresolved. Otherwise the change is better
// when it wins at least nine tenths of the pairs (ties count for neither
// side) and its median beats the parent's by more than the parent's
// interquartile range; worse when its median is worse than the parent's by
// more than the bound (a share of the parent's median); and unresolved,
// rather than the same, when the parent's own spread exceeds the bound,
// unless every change run beats every parent run. It also returns the
// change's wins.
func decide(parent, change []float64, pairs [][2]float64, m specMetric) (verdict string, wins int) {
	lower := m.Better == "lower"
	beats := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	q1, pmed, q3 := quartiles(parent)
	cmed := median(change)
	gain := cmed - pmed
	if lower {
		gain = -gain
	}
	for _, pr := range pairs {
		if beats(pr[1], pr[0]) {
			wins++
		}
	}
	if len(pairs) < minPairs {
		return verdictUnresolved, wins
	}
	if 10*wins >= 9*len(pairs) && gain > q3-q1 {
		return verdictBetter, wins
	}
	allBeat := true
	for _, c := range change {
		for _, p := range parent {
			allBeat = allBeat && beats(c, p)
		}
	}
	if (q3-q1)/math.Abs(pmed) > m.Bound && !allBeat {
		return verdictUnresolved, wins
	}
	if -gain > m.Bound*math.Abs(pmed) {
		return verdictWorse, wins
	}
	return verdictSame, wins
}

// compareDirs compares the runs saved in two directories, one table per
// end-to-end metric with one row per workload. It refuses runs measured on
// different hosts, or runs of one workload made with different settings, and
// reports an error when any metric got worse.
func compareDirs(w io.Writer, specPath, parentDir, changeDir string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	parent, skippedP, err := readRuns(parentDir)
	if err != nil {
		return err
	}
	change, skippedC, err := readRuns(changeDir)
	if err != nil {
		return err
	}
	ref := parent[0].header.Host
	first := map[string]savedRun{} // the first run of each workload
	for _, r := range append(append([]savedRun(nil), parent...), change...) {
		if r.header.Host != ref {
			return fmt.Errorf("refusing to compare results from different hosts: %s has %+v, %s has %+v",
				parent[0].file, ref, r.file, r.header.Host)
		}
		f, ok := first[r.header.Run.Workload]
		if !ok {
			first[r.header.Run.Workload] = r
			continue
		}
		if a, b := f.header.Run, r.header.Run; a.Seconds != b.Seconds || a.Folders != b.Folders {
			return fmt.Errorf("refusing to compare %s runs made with different settings: %s ran %g s on %d folders, %s ran %g s on %d folders",
				a.Workload, f.file, a.Seconds, a.Folders, r.file, b.Seconds, b.Folders)
		}
	}
	byWorkload := func(runs []savedRun) map[string][]savedRun {
		out := map[string][]savedRun{}
		for _, r := range runs {
			out[r.header.Run.Workload] = append(out[r.header.Run.Workload], r)
		}
		return out
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var names []string
	for name := range pw {
		if _, ok := cw[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has runs on both sides")
	}
	fmt.Fprintf(w, "host: %+v\n", ref)
	if skippedP+skippedC > 0 {
		fmt.Fprintf(w, "skipped %d files that are not run outputs\n", skippedP+skippedC)
	}
	worse := 0
	for _, m := range spec {
		fmt.Fprintf(w, "\n%s (%s, %s is better, bound %g)\n", m.Name, m.Unit, m.Better, m.Bound)
		fmt.Fprintf(w, "  %-18s %-32s %-32s %6s  %s\n", "workload", "parent q1 / median / q3", "change q1 / median / q3", "wins", "verdict")
		for _, name := range names {
			p, c := values(pw[name], m.Name), values(cw[name], m.Name)
			pairs := pairBySeed(pw[name], cw[name], m.Name)
			v, wins := decide(p, c, pairs, m)
			if v == verdictWorse {
				worse++
			}
			if len(pairs) < minPairs {
				v += fmt.Sprintf(" (%d seed pairs, needs %d)", len(pairs), minPairs)
			}
			pq1, pq2, pq3 := quartiles(p)
			cq1, cq2, cq3 := quartiles(c)
			fmt.Fprintf(w, "  %-18s %-32s %-32s %6s  %s\n", name,
				fmt.Sprintf("%.4g / %.4g / %.4g", pq1, pq2, pq3),
				fmt.Sprintf("%.4g / %.4g / %.4g", cq1, cq2, cq3),
				fmt.Sprintf("%d/%d", wins, len(pairs)), v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs got worse by more than their bound", worse)
	}
	return nil
}

func values(runs []savedRun, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// pairBySeed pairs the parent and change runs made with the same seed,
// as (parent, change) values.
func pairBySeed(parent, change []savedRun, metric string) [][2]float64 {
	bySeed := map[uint64]float64{}
	for _, r := range parent {
		if m, ok := r.result.Metrics[metric]; ok {
			bySeed[r.header.Run.Seed] = m.Value
		}
	}
	var out [][2]float64
	for _, r := range change {
		p, ok := bySeed[r.header.Run.Seed]
		if m, found := r.result.Metrics[metric]; ok && found {
			out = append(out, [2]float64{p, m.Value})
		}
	}
	return out
}
