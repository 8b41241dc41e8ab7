package soe

import (
	"sync"

	"xmlac/internal/core"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	itrace "xmlac/internal/trace"
)

// scanState bundles the serial scan's machinery (secure reader, Skip-index
// decoder and evaluator), reused across scans through a sync.Pool:
// concurrent views do not re-allocate the reader caches, decoder stacks and
// evaluator tables, they only reset them.
type scanState struct {
	reader  *secure.Reader
	decoder skipindex.Decoder
	eval    core.Evaluator
}

var scanPool = sync.Pool{New: func() any { return &scanState{} }}

// Scan is the SOE's one streaming scan of one subject's view: the evaluator
// pulls events from a Skip-index decoder over a secure reader of src and
// jumps over the subtrees it skips (no jumps, and no token filtering, under
// opts.DisableSkipIndex). opts.Trace, when non-nil, is charged the reader's
// and the decoder's phases too, and the event loop as PhaseEval.
//
// A reader or decoder that cannot open the source returns only the error.
// A failed scan returns the error together with the partial result and the
// costs of the work performed.
func Scan(src secure.ChunkSource, key secure.Key, cp *core.CompiledPolicy, opts core.Options) (*core.Result, secure.Costs, error) {
	st := scanPool.Get().(*scanState)
	defer scanPool.Put(st)
	var err error
	if st.reader == nil {
		st.reader, err = secure.NewReader(src, key)
	} else {
		err = st.reader.Reset(src, key)
	}
	if err != nil {
		return nil, secure.Costs{}, err
	}
	// The trace is attached before the decoder opens, so the header read
	// (the first chunk's fetch, decryption and verification) is charged to
	// the scan's phases like every later read.
	tr := opts.Trace
	if tr != nil {
		st.reader.SetTrace(tr)
		defer st.reader.SetTrace(nil)
	}
	decoder := &st.decoder
	if err := decoder.Reset(st.reader); err != nil {
		return nil, secure.Costs{}, err
	}
	decoder.SetTrace(tr)
	st.eval.Reset(decoder, cp, opts)
	defer tr.Enter(tr.Enter(itrace.PhaseEval))
	res, err := st.eval.Run()
	return res, st.reader.Costs(), err
}
