// Package a seeds the phase-switch diagnostics against a context type
// mirroring xmlac/internal/trace.Context (the real package is internal to
// the xmlac module; the analyzer is configured with both type names).
package a

import "vettest/trace"

func bareEnter(tr *trace.Context) {
	tr.Enter(trace.PhaseDecode) // want `must be written defer x.Enter\(x.Enter\(p\)\)`
}

func storedResult(tr *trace.Context) error {
	prev := tr.Enter(trace.PhaseEval) // want `must be written defer`
	err := work()
	tr.Enter(prev) // want `must be written defer`
	return err
}

func restoreOnAnotherReceiver(a, b *trace.Context) {
	defer a.Enter(b.Enter(trace.PhaseFetch)) // want `must be written defer`
	_ = work()
}

func nonDeferredRestore(tr *trace.Context) {
	tr.Enter(tr.Enter(trace.PhaseSkip)) // want `must be written defer`
}

func deferredEnterOfAPhase(tr *trace.Context) {
	defer tr.Enter(trace.PhaseEmit) // want `must be written defer`
	_ = work()
}

func methodValue(tr *trace.Context) func(trace.Phase) trace.Phase {
	return tr.Enter // want `must be written defer`
}

func goStatement(tr *trace.Context) {
	go tr.Enter(tr.Enter(trace.PhaseResync)) // want `must be written defer`
}

func idiomInLoop(tr *trace.Context, chunks []int) {
	for range chunks {
		defer tr.Enter(tr.Enter(trace.PhaseDecrypt)) // want `in a loop body`
	}
}

func idiomInRangeSwitch(tr *trace.Context, kinds []int) {
	for _, k := range kinds {
		switch k {
		case 0:
			defer tr.Enter(tr.Enter(trace.PhaseVerify)) // want `in a loop body`
		}
	}
}

func work() error { return nil }
