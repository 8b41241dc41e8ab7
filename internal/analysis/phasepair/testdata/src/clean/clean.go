// Package clean is the negative case: the one phase-switch idiom, in the
// places the module uses it, which the analyzer must accept without
// diagnostics.
package clean

import "vettest/trace"

type reader struct {
	trace *trace.Context
}

func deferredSwitch(tr *trace.Context) error {
	defer tr.Enter(tr.Enter(trace.PhaseFetch))
	if err := work(); err != nil {
		return err
	}
	return nil
}

func (r *reader) fieldReceiver() error {
	defer r.trace.Enter(r.trace.Enter(trace.PhaseHashFetch))
	return work()
}

func afterChecks(tr *trace.Context, n int) int {
	if n < 0 {
		return 0
	}
	defer tr.Enter(tr.Enter(trace.PhaseEval))
	return n
}

func nestedSwitches(tr *trace.Context) {
	defer tr.Enter(tr.Enter(trace.PhaseDecode))
	func() {
		defer tr.Enter(tr.Enter(trace.PhaseDecrypt))
		_ = work()
	}()
}

func funcLitInLoop(tr *trace.Context, chunks []int) {
	for range chunks {
		func() {
			defer tr.Enter(tr.Enter(trace.PhaseVerify))
			_ = work()
		}()
	}
}

func helperPerIteration(r *reader, chunks []int) {
	for range chunks {
		_ = r.fieldReceiver()
	}
}

func work() error { return nil }
