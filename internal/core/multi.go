package core

import (
	"errors"
	"fmt"

	"xmlac/internal/xmlstream"
)

// Shared-scan multicast evaluation: one streaming pass over the document
// (one decryption, one integrity check, one parse) serves the compiled
// policies of many subjects at once. The paper's cost model makes the pass
// itself the dominant cost, and under heavy traffic the same ciphertext bytes
// are scanned over and over for different subjects; the MultiEvaluator
// amortizes that pass by dispatching every event to one Evaluator per subject,
// each with its own compiled policy, options, delivery sink and metrics.
//
// The Skip index degrades gracefully: each subject keeps its solo skip
// decisions (a subject that would have skipped a subtree stops receiving its
// events and is charged the bytes its solo scan would have skipped), but the
// shared reader can only physically jump over a region that every live
// subject skips — the scan must still produce the union of the subjects'
// needed regions. Per-subject evaluation is therefore byte-identical to the
// solo path; only the shared costs (bytes transferred, decrypted, physically
// skipped) are pooled.

// SkipMeasurer is implemented by event sources that can report how many bytes
// a SkipToClose at the given depth would jump over, without performing the
// jump (the Skip-index decoder). The multicast scan uses it to keep
// per-subject skip accounting identical to the solo path.
type SkipMeasurer interface {
	SkipDistance(depth int) (int64, error)
}

// errMultiFeedNext guards against a subject evaluator pulling events itself:
// in a multicast scan the MultiEvaluator owns the reader and pushes events.
var errMultiFeedNext = errors.New("core: multicast subject feed is push-driven; Next must not be called")

// subjectFeed is the per-subject facade over the shared reader: it forwards
// the Skip-index metadata of the shared decoder and never produces events
// itself (the MultiEvaluator pushes them). It deliberately does not implement
// xmlstream.Skipper; skipSubjectFeed adds that when the shared reader skips.
type subjectFeed struct {
	m *MultiEvaluator
	s *multiSubject
}

func (f *subjectFeed) Next() (xmlstream.Event, error) {
	return xmlstream.Event{}, errMultiFeedNext
}

// CurrentDescendantTags implements MetaProvider by delegation: the shared
// decoder's most recently opened element is exactly the element every subject
// is currently processing, so the metadata is valid for all of them.
func (f *subjectFeed) CurrentDescendantTags() (map[string]struct{}, bool) {
	if f.m.meta == nil {
		return nil, false
	}
	return f.m.meta.CurrentDescendantTags()
}

// skipSubjectFeed adds the Skipper facade for shared readers that can skip: a
// subject's skip request suspends its event delivery until the matching Close
// instead of moving the shared reader, and reports the byte count the solo
// path would have skipped.
type skipSubjectFeed struct {
	subjectFeed
}

func (f *skipSubjectFeed) SkipToClose(depth int) (int64, error) {
	f.s.requestedSkip = depth
	if f.m.measure != nil {
		return f.m.measure.SkipDistance(depth)
	}
	return 0, nil
}

// multiSubject is the per-subject state of a multicast scan.
type multiSubject struct {
	eval *Evaluator
	// skipDepth > 0 suspends event delivery until the Close event at that
	// depth arrives (the subject virtually skipped the subtree).
	skipDepth int
	// requestedSkip is set by the feed during ProcessEvent and folded into
	// skipDepth by the driver once the event is fully processed.
	requestedSkip int
	err           error
}

// SubjectOutcome is the per-subject result of a multicast scan: the usual
// evaluation Result, or the error that removed the subject from the scan (a
// failed sink, typically a disconnected client). One subject's failure never
// disturbs the other subjects' streams.
type SubjectOutcome struct {
	Result *Result
	Err    error
}

// MultiStats reports the shared side of a multicast scan.
type MultiStats struct {
	// Events is the number of events read from the shared reader.
	Events int64
	// SharedSkips counts the physical skips performed on the shared reader
	// (possible only when every live subject skipped the region).
	SharedSkips int64
	// SharedBytesSkipped is the number of encoded bytes those skips jumped
	// over: bytes neither transferred nor decrypted for any subject.
	SharedBytesSkipped int64
}

// MultiEvaluator runs N subject evaluations over a single document scan. It
// is not safe for concurrent use; create one per shared scan.
type MultiEvaluator struct {
	reader  xmlstream.EventReader
	meta    MetaProvider
	skipper xmlstream.Skipper
	measure SkipMeasurer

	subjects []*multiSubject
	stats    MultiStats
	ran      bool
}

// NewMultiEvaluator prepares a multicast scan over the shared reader
// (typically the Skip-index decoder over the secure reader).
func NewMultiEvaluator(reader xmlstream.EventReader) *MultiEvaluator {
	m := &MultiEvaluator{reader: reader}
	if mp, ok := reader.(MetaProvider); ok {
		m.meta = mp
	}
	if sk, ok := reader.(xmlstream.Skipper); ok {
		m.skipper = sk
	}
	if sm, ok := reader.(SkipMeasurer); ok {
		m.measure = sm
	}
	return m
}

// AddSubject registers one subject evaluation with its own compiled policy
// and options (query, sink, dummy names — everything per-subject) and returns
// its index in the Run outcomes. A non-nil ev is reset and reused (pool
// friendliness); nil allocates a fresh evaluator.
func (m *MultiEvaluator) AddSubject(ev *Evaluator, cp *CompiledPolicy, opts Options) int {
	if ev == nil {
		ev = &Evaluator{}
	}
	s := &multiSubject{eval: ev}
	feed := subjectFeed{m: m, s: s}
	var reader xmlstream.EventReader
	if m.skipper != nil {
		reader = &skipSubjectFeed{subjectFeed: feed}
	} else {
		reader = &feed
	}
	ev.Reset(reader, cp, opts)
	m.subjects = append(m.subjects, s)
	return len(m.subjects) - 1
}

// NumSubjects returns the number of registered subjects.
func (m *MultiEvaluator) NumSubjects() int { return len(m.subjects) }

// Stats returns the shared-scan counters accumulated so far.
func (m *MultiEvaluator) Stats() MultiStats { return m.stats }

// allSuspendedDepth reports the deepest virtual-skip depth when every live
// subject is suspended — the point up to which the shared reader can
// physically jump (skip targets of concurrently suspended subjects are nested
// along the open path, so the deepest one resumes first).
func (m *MultiEvaluator) allSuspendedDepth() (int, bool) {
	depth := 0
	for _, s := range m.subjects {
		if s.err != nil {
			continue
		}
		if s.skipDepth == 0 {
			return 0, false
		}
		if s.skipDepth > depth {
			depth = s.skipDepth
		}
	}
	return depth, depth > 0
}

// Run drives the shared scan to the end of the document and finalizes every
// subject. The returned slice has one outcome per AddSubject call, in order.
// Per-subject failures (a sink that stops accepting bytes) only remove that
// subject, and surface in its outcome. A shared failure (the reader itself
// fails: truncated ciphertext, integrity violation) aborts the whole scan:
// it is returned as the error and every subject still live carries it in
// its outcome, with the partial metrics of the work already performed.
func (m *MultiEvaluator) Run() ([]SubjectOutcome, error) {
	if m.ran {
		return nil, errors.New("core: MultiEvaluator.Run called twice")
	}
	m.ran = true
	err := m.scan()
	if err != nil {
		for _, s := range m.subjects {
			if s.err == nil {
				s.err = err
			}
		}
	}
	return m.finalize(), err
}

// liveCount returns the number of subjects still participating in the scan.
func (m *MultiEvaluator) liveCount() int {
	live := 0
	for _, s := range m.subjects {
		if s.err == nil {
			live++
		}
	}
	return live
}

// scan drives the shared reader to the end of the document, dispatching
// every event to the live subjects, without finalizing them. A region worker
// of a parallel scan uses it directly: its subjects must not be finalized at
// the region's end (the document root is still open there), the stitching
// layer finalizes them once after the last region.
func (m *MultiEvaluator) scan() error {
	live := m.liveCount()
	for live > 0 {
		if m.skipper != nil {
			if depth, ok := m.allSuspendedDepth(); ok {
				skipped, err := m.skipper.SkipToClose(depth)
				if err != nil {
					return fmt.Errorf("core: skipping shared subtree: %w", err)
				}
				m.stats.SharedSkips++
				m.stats.SharedBytesSkipped += skipped
			}
		}
		ev, err := m.reader.Next()
		if errors.Is(err, xmlstream.ErrEndOfDocument) {
			break
		}
		if err != nil {
			return fmt.Errorf("core: reading document: %w", err)
		}
		m.stats.Events++
		live -= m.dispatch(ev)
	}
	return nil
}

// dispatch pushes one event to every live subject, honoring per-subject
// virtual skips, and returns the number of subjects the event killed (sink
// failures). It is also the injection point for replaying a shared document
// prefix into region evaluators before their region's own events.
func (m *MultiEvaluator) dispatch(ev xmlstream.Event) (died int) {
	for _, s := range m.subjects {
		if s.err != nil {
			continue
		}
		if s.skipDepth > 0 {
			// Virtually skipped subtree: the subject resumes on the Close
			// of the skipped element, exactly the event a solo
			// SkipToClose would deliver next.
			if ev.Kind != xmlstream.Close || ev.Depth != s.skipDepth {
				continue
			}
			s.skipDepth = 0
		}
		if err := s.eval.ProcessEvent(ev); err != nil {
			s.err = err
			died++
			continue
		}
		if s.requestedSkip > 0 {
			s.skipDepth = s.requestedSkip
			s.requestedSkip = 0
		}
	}
	return died
}

// finalize ends every subject's evaluation and collects the outcomes, one
// per AddSubject call, in order.
func (m *MultiEvaluator) finalize() []SubjectOutcome {
	outcomes := make([]SubjectOutcome, len(m.subjects))
	for i, s := range m.subjects {
		if s.err != nil {
			// The subject failed mid-scan (typically a disconnected client's
			// sink): report the partial evaluation metrics alongside the
			// error so the work already performed is still accounted for.
			outcomes[i] = SubjectOutcome{Result: &Result{Metrics: s.eval.Metrics()}, Err: s.err}
			continue
		}
		res, err := s.eval.Finish()
		if err != nil && res == nil {
			// A finalize-time sink failure: same partial accounting.
			res = &Result{Metrics: s.eval.Metrics()}
		}
		outcomes[i] = SubjectOutcome{Result: res, Err: err}
	}
	return outcomes
}
