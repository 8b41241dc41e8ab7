package main

import (
	"errors"
	"fmt"
	"hash/maphash"
	"regexp"
	"sort"
	"strings"

	"xmlac"
)

// digest identifies a view by its length and a hash of its bytes, so a run
// checks every delivered view without keeping it.
type digest struct {
	n int64
	h uint64
}

// hashSeed is fixed for the process: digests are compared only within one
// run.
var hashSeed = maphash.MakeSeed()

// digestWriter computes the digest of a view while it is streamed.
type digestWriter struct {
	h maphash.Hash
	n int64
}

func newDigestWriter() *digestWriter {
	d := &digestWriter{}
	d.h.SetSeed(hashSeed)
	return d
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.h.Write(p)
	d.n += int64(len(p))
	return len(p), nil
}

func (d *digestWriter) sum() digest { return digest{n: d.n, h: d.h.Sum64()} }

func digestOf(s string) digest {
	w := newDigestWriter()
	w.h.WriteString(s)
	w.n = int64(len(s))
	return w.sum()
}

// expectedView is the oracle: the policy evaluated over the plaintext
// document by the reference evaluator, whose serialization is byte-identical
// to the streamed view of the protected document.
func expectedView(doc *xmlac.Document, p xmlac.Policy) (digest, error) {
	view, err := xmlac.EvaluateDocument(doc, p, xmlac.ViewOptions{})
	if err != nil {
		return digest{}, fmt.Errorf("oracle for %s: %w", p.Subject, err)
	}
	return digestOf(view.XML()), nil
}

// errMismatch marks a view whose bytes differ from the oracle's.
var errMismatch = errors.New("view differs from the oracle")

// check fails a view sample whose delivered digest is not the expected one.
func (s *sample) check() {
	if s.err == nil && s.kind == opView && s.got != s.want {
		s.err = fmt.Errorf("%w: got %d bytes, want %d", errMismatch, s.got.n, s.want.n)
	}
}

var (
	quoted   = regexp.MustCompile(`"[^"]*"`)
	digitRun = regexp.MustCompile(`[0-9]+`)
)

// errorClass groups errors that differ only in quoted values (entity tags)
// and numbers (offsets, versions, byte counts) under one label.
func errorClass(err error) string {
	if errors.Is(err, errMismatch) {
		return "oracle mismatch"
	}
	class := digitRun.ReplaceAllString(quoted.ReplaceAllString(err.Error(), `"…"`), "N")
	if len(class) > 160 {
		class = class[:160] + "..."
	}
	return class
}

// classReport groups the samples' errors that errOf returns by class, most
// frequent first.
func classReport(samples []*sample, errOf func(*sample) error) []string {
	counts := map[string]int{}
	for _, s := range samples {
		if err := errOf(s); err != nil {
			counts[s.kind.String()+": "+errorClass(err)]++
		}
	}
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		if counts[classes[i]] != counts[classes[j]] {
			return counts[classes[i]] > counts[classes[j]]
		}
		return classes[i] < classes[j]
	})
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = fmt.Sprintf("%6d  %s", counts[c], strings.TrimSpace(c))
	}
	return out
}
