// Command perfbench is the repository's benchmark. It builds its inputs
// from a seed, drives the xmlac library and server through their public
// functions, checks every view it receives against the reference
// evaluator, and prints its metrics by name with their unit, the last line
// being one JSON object. Run it from the repository root:
//
//	bash perfbench/run.sh --workload local-secretary --seed 1 --seconds 15 --trace 0
//
// The workloads, each chosen to stress different layers:
//
//   - local-secretary: 800 hospital folders protected in process; one
//     closed-loop client streams the secretary view, which skips most of
//     the ciphertext (Skip index, decryption and integrity checks dominate).
//   - local-doctor: 160 folders; one closed-loop client streams the views of
//     DrA..DrH in a 5:3:2:2:1:1:1:1 mix, large views where decoding,
//     evaluation, delivery and allocation dominate.
//   - remote-secretary: 400 folders behind an in-memory server on loopback;
//     two client SOEs read it in sessions of an Open and four views, with a
//     page cache smaller than the view's working set (round trips and the
//     wire dominate).
//   - store-update: 200 folders in a durable store (fsync on every commit);
//     an open-loop writer PATCHes (2/s) while an open-loop reader
//     revalidates and views (8/s).
//
// Each run sets the system up five times (setup_s is the median), warms up,
// then measures for --seconds. With --trace 0 it reports the end-to-end
// metrics BENCHMARK.json bounds, plus the CPU time per operation and the
// wall-clock throughput and latency for reference; with --trace 1 it traces
// every other operation and reports
// per-layer metrics. perfbench -compare PARENT CHANGE compares two
// directories of saved run outputs. README.md defines every metric, maps
// the layers to the end-to-end metrics they move and records the baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"xmlac"
)

// setupRuns is how many times a run sets the system up; setup_s is the
// median.
const setupRuns = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// folders overrides the workload's document size. No flag sets it, so
	// every run of a workload measures the same document size; the tests
	// shrink it.
	folders int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: local-secretary, local-doctor, remote-secretary or store-update")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 traces every other operation and reports per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write a Chrome trace to this file")
	compare := fs.Bool("compare", false, "compare two directories of saved results: -compare PARENT CHANGE")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark description holding the metric bounds (-compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two directories")
			return 2
		}
		if err := compareDirs(stdout, *spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	// A run that hangs must still end, with an error, well within the time
	// a caller allows it.
	limit := time.Duration(cfg.seconds*float64(time.Second)) + 150*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: run did not finish within %s\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := runWorkload(cfg, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// warmupFor is the warm-up before a window of the given length: long enough
// for connections, caches and the GC pacer to settle.
func warmupFor(window time.Duration) time.Duration {
	return min(2*time.Second, window/4)
}

// runWorkload runs one workload and prints its metrics.
func runWorkload(cfg config, stdout, stderr io.Writer) error {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return err
	}
	folders := wl.folders
	if cfg.folders > 0 {
		folders = cfg.folders
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	warm := warmupFor(window)

	var hdr runHeader
	hdr.Run.Workload, hdr.Run.Seed, hdr.Run.Seconds, hdr.Run.Folders = wl.name, cfg.seed, cfg.seconds, folders
	if cfg.trace {
		hdr.Run.Trace = 1
	}
	hdr.Host = hostFingerprint()
	line, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)

	e := &env{
		in:       newInputs(folders, cfg.seed, warm, window),
		key:      xmlac.DeriveKey(passphrase),
		policies: wl.policies(),
	}
	if cfg.trace {
		e.tr = newTracer()
	}
	if !wl.checkAfter {
		doc, err := xmlac.ParseDocumentString(e.in.xml)
		if err != nil {
			return err
		}
		for _, p := range e.policies {
			d, err := expectedView(doc, p)
			if err != nil {
				return err
			}
			e.want = append(e.want, d)
		}
	}

	// Set-up is CPU work (parsing, Protect, compiling, registering), timed
	// in process CPU time: the host's steal time moves its wall time by up to
	// half between otherwise identical batches of runs.
	m := &measured{weights: wl.weights}
	var r *rig
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		start := processCPU()
		r, err = wl.setup(e)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		m.setup = append(m.setup, processCPU()-start)
	}
	defer r.close()
	runtime.GC()

	clk := realClock{}
	warmSamples := runPhase(clk, r.clients, clk.Now(), warm, e.in.warm)

	if r.srv != nil && cfg.trace {
		if m.srv0, err = r.srv.counters(); err != nil {
			return err
		}
	}
	if e.tr != nil {
		e.tr.busyNs.Store(0)
	}
	m.u0 = readUsage()
	heap := startHeapSampler()
	m.windowStart = clk.Now()
	m.window = runPhase(clk, r.clients, m.windowStart, window, e.in.window)
	m.heapGoal = heap.Stop()
	m.u1 = readUsage()
	if e.tr != nil {
		m.busyNs = e.tr.busyNs.Load()
	}
	if r.srv != nil && cfg.trace {
		if m.srv1, err = r.srv.counters(); err != nil {
			return err
		}
	}

	all := append(warmSamples, m.window...)
	if r.verify != nil {
		if err := r.verify(all); err != nil {
			return fmt.Errorf("checking views: %w", err)
		}
	}
	res := &result{Correct: true, Attempted: len(all)}
	for _, s := range all {
		if s.err != nil {
			res.Failed++
			if errors.Is(s.err, errMismatch) || errors.Is(s.err, errUnknownVersion) {
				res.Correct = false
			}
		}
	}
	if classes := classReport(all, func(s *sample) error { return s.err }); len(classes) > 0 {
		fmt.Fprintf(stdout, "failed operations by class (%d of %d):\n", res.Failed, res.Attempted)
		for _, c := range classes {
			fmt.Fprintln(stdout, c)
		}
	}
	// A retried view succeeded in the end; its last error still names a
	// fault of the program.
	if classes := classReport(all, func(s *sample) error { return s.retryErr }); len(classes) > 0 {
		fmt.Fprintln(stdout, "retried operations by class of their last error:")
		for _, c := range classes {
			fmt.Fprintln(stdout, c)
		}
	}
	if n := len(m.window); !tailSupported(90, n) {
		fmt.Fprintf(stderr, "perfbench: only %d operations in the window; op_p90_ms has fewer than %d beyond it\n", n, minTail)
	}
	if cfg.trace && cfg.traceOut != "" {
		if err := writeTraceOut(e.tr, r, cfg.traceOut); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%s: %d operations in %.1f s, seed %d\n", wl.name, len(m.window), cfg.seconds, cfg.seed)
	if cfg.trace {
		fmt.Fprintln(stdout, "per-layer metrics:")
		return printMetrics(stdout, res, perLayer(m))
	}
	fmt.Fprintln(stdout, "CPU and wall clock (not bounded, follow the host's load):")
	for _, w := range hostBound(m) {
		fmt.Fprintf(stdout, "  %-38s %14.6g %s\n", w.name, finite(w.value), w.unit)
	}
	fmt.Fprintln(stdout, "end-to-end metrics:")
	return printMetrics(stdout, res, endToEnd(m))
}

// writeTraceOut writes the Chrome trace of a traced run, with the server's
// spans read from its /debug/trace ring.
func writeTraceOut(tr *tracer, r *rig, path string) error {
	var spans []xmlac.TraceSpan
	if r.srv != nil {
		resp, err := r.srv.ctl.Get(r.srv.root + "/debug/trace")
		if err != nil {
			return err
		}
		spans, err = xmlac.ParseTraceJSONL(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
	}
	return tr.writeChromeTrace(path, spans)
}
