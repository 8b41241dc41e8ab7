// Command xmlac-bench regenerates the tables and figures of the paper's
// evaluation section (section 7) using the experiment harness of
// internal/experiments, printing one text table per experiment — or, with
// -json, runs the machine-readable wall-clock suites of internal/bench and
// writes BENCH_streaming_view.json, BENCH_update.json, BENCH_parallel_scan.json
// and BENCH_wal.json in the stable schema CI uploads on every run.
// The parallel-scan suite builds its own larger fixture (-parallel-scale,
// default 8.0 ≈ 30 MB) because the region-parallel speedup only shows on
// documents big enough to amortize the planning pass.
//
// Usage:
//
//	xmlac-bench -all -scale 0.1
//	xmlac-bench -figure 9
//	xmlac-bench -table 2
//	xmlac-bench -json -scale 1.0 -out .
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xmlac"
	"xmlac/internal/bench"
	"xmlac/internal/experiments"
	"xmlac/internal/soe"
)

func main() {
	all := flag.Bool("all", false, "run every table and figure")
	table := flag.Int("table", 0, "run one table (1 or 2)")
	figure := flag.Int("figure", 0, "run one figure (8, 9, 10, 11 or 12)")
	scale := flag.Float64("scale", 0.05, "dataset scale factor (1.0 approximates the paper's sizes)")
	profile := flag.String("profile", "hardware", "cost profile: hardware, software-internet or software-lan")
	jsonOut := flag.Bool("json", false, "run the wall-clock suites and write BENCH_*.json instead of the paper tables")
	outDir := flag.String("out", ".", "directory receiving the BENCH_*.json artifacts (-json only)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of one traced streaming view of the fixture to this file (-json only)")
	appendTraj := flag.Bool("append", false, "append a dated, git-stamped entry with every result to the trajectory file (-json only)")
	trajPath := flag.String("trajectory", "BENCH_trajectory.jsonl", "trajectory file for -append and -gate")
	gatePct := flag.Float64("gate", 0, "fail when any benchmark's ns/op regresses more than this percentage over the newest trajectory entry (-json only; 0 disables)")
	source := flag.String("source", "local", "source label recorded in appended trajectory entries (local or ci)")
	parallelScale := flag.Float64("parallel-scale", 8.0, "dataset scale of the parallel-scan suite's own fixture (-json only; 0 skips the suite)")
	flag.Parse()

	if *jsonOut {
		if err := runJSON(*scale, *parallelScale, *outDir, *traceOut, *appendTraj, *trajPath, *gatePct, *source); err != nil {
			fmt.Fprintln(os.Stderr, "xmlac-bench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	switch *profile {
	case "hardware":
		cfg.Profile = soe.HardwareSmartCard()
	case "software-internet":
		cfg.Profile = soe.SoftwareInternet()
	case "software-lan":
		cfg.Profile = soe.SoftwareLAN()
	default:
		fmt.Fprintf(os.Stderr, "xmlac-bench: unknown profile %q\n", *profile)
		os.Exit(2)
	}

	if !*all && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, *all, *table, *figure); err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-bench:", err)
		os.Exit(1)
	}
}

// runJSON measures the streaming-view and update suites on the hospital
// document at the given scale and writes one JSON artifact per suite, plus an
// optional Chrome trace of one instrumented streaming view. With -append the
// combined results also become a new trajectory entry; with -gate they are
// checked against the newest committed entry first.
func runJSON(scale, parallelScale float64, outDir, traceOut string, appendTraj bool, trajPath string, gatePct float64, source string) error {
	fx, err := bench.NewHospitalFixture(scale)
	if err != nil {
		return err
	}
	if traceOut != "" {
		if err := writeTrace(fx, traceOut); err != nil {
			return err
		}
		fmt.Println("wrote", traceOut)
	}
	streaming := bench.StreamingViewSuite(fx)
	streamingPath := filepath.Join(outDir, "BENCH_streaming_view.json")
	if err := bench.WriteJSON(streamingPath, streaming); err != nil {
		return err
	}
	fmt.Println("wrote", streamingPath)
	// The update suite mutates its fixture (every op installs a new document
	// version), so it gets its own instead of sharing fx with the view
	// suites above.
	updateFx, err := bench.NewHospitalFixture(scale)
	if err != nil {
		return err
	}
	updates := bench.UpdateSuite(updateFx)
	updatePath := filepath.Join(outDir, "BENCH_update.json")
	if err := bench.WriteJSON(updatePath, updates); err != nil {
		return err
	}
	fmt.Println("wrote", updatePath)
	// The parallel-scan curve runs on its own, larger fixture (the speedup
	// only shows on documents big enough to amortize the region planning;
	// the acceptance curve uses scale 8, ~30 MB) — byte-identity is checked
	// by the suite before any timing.
	var parallel []bench.Result
	if parallelScale > 0 {
		parallelFx, err := bench.NewHospitalFixture(parallelScale)
		if err != nil {
			return err
		}
		parallel, err = bench.ParallelScanSuite(parallelFx)
		if err != nil {
			return err
		}
		parallelPath := filepath.Join(outDir, "BENCH_parallel_scan.json")
		if err := bench.WriteJSON(parallelPath, parallel); err != nil {
			return err
		}
		fmt.Println("wrote", parallelPath)
	}

	// The WAL suite prices durability on the server's PATCH path: the same
	// update round-trip in memory, with the WAL's group-commit fsyncs, and
	// with the WAL but fsyncs disabled. A modest document keeps the arm
	// runtimes dominated by the storage discipline, not the re-encryption.
	walResults := bench.WALSuite(50)
	walPath := filepath.Join(outDir, "BENCH_wal.json")
	if err := bench.WriteJSON(walPath, walResults); err != nil {
		return err
	}
	fmt.Println("wrote", walPath)

	all := append(append(append(streaming, updates...), parallel...), walResults...)
	if gatePct > 0 {
		baseline, err := bench.NewestTrajectory(trajPath)
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		if bad := bench.GateTrajectory(baseline, all, gatePct); len(bad) > 0 {
			return fmt.Errorf("regression gate (>%g%% over %s):\n  %s",
				gatePct, baseline.Commit, strings.Join(bad, "\n  "))
		}
		fmt.Printf("gate: no benchmark regressed more than %g%% over %s\n", gatePct, baseline.Commit)
	}
	if appendTraj {
		entry := bench.TrajectoryEntry{
			Time:    time.Now().UTC().Format(time.RFC3339),
			Commit:  gitCommit(),
			Source:  source,
			Scale:   scale,
			Go:      runtime.Version(),
			Results: all,
		}
		if err := bench.AppendTrajectory(trajPath, entry); err != nil {
			return err
		}
		fmt.Println("appended", trajPath)
	}
	return nil
}

// gitCommit stamps trajectory entries with the short revision being measured;
// a runner without git or outside a repository records "unknown" rather than
// failing the run.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if rev := strings.TrimSpace(string(out)); rev != "" {
		return rev
	}
	return "unknown"
}

// writeTrace runs one traced streaming view of the fixture's secretary policy
// and writes its spans as a Chrome trace loadable in chrome://tracing or
// Perfetto — the bench job's phase-level profile artifact.
func writeTrace(fx *bench.Fixture, path string) error {
	trace := xmlac.NewTrace(0)
	opts := xmlac.ViewOptions{Trace: trace, TraceID: "bench-streaming-view"}
	if _, _, err := fx.Prot.View(context.Background(), fx.Key, fx.Secretary, opts, io.Discard); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// The lane form keeps local bench traces loadable alongside the merged
	// client+server traces xmlac-view -url writes: same named-process
	// layout, just a single lane because the fixture never leaves the
	// process.
	err = xmlac.WriteMergedChromeTrace(f, xmlac.TraceLane{
		Name:  "client SOE",
		Spans: trace.Spans(xmlac.TraceFilter{}),
	})
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(cfg experiments.Config, all bool, table, figure int) error {
	want := func(t, f int) bool {
		return all || (table != 0 && table == t) || (figure != 0 && figure == f)
	}
	if want(1, 0) {
		fmt.Println(experiments.Table1().Render())
	}
	if want(2, 0) {
		fmt.Println(experiments.Table2(cfg).Render())
	}
	if want(0, 8) {
		fmt.Println(experiments.Figure8(cfg).Render())
	}
	if want(0, 9) {
		res, err := experiments.Figure9(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want(0, 10) {
		res, err := experiments.Figure10(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want(0, 11) {
		res, err := experiments.Figure11(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want(0, 12) {
		res, err := experiments.Figure12(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	return nil
}
