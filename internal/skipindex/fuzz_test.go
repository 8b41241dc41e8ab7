package skipindex

import (
	"errors"
	"reflect"
	"testing"

	"xmlac/internal/xmlstream"
)

// The Skip index reaches the SOE from the untrusted terminal, so its decoder
// must fail cleanly on any input: no panic, a position that never moves
// backwards, and no open element the position has run past. A pooled
// decoder reused after earlier inputs, even failed ones, must behave exactly
// like a fresh one.

// decodeRun is what driving a decoder over one input produced.
type decodeRun struct {
	events []xmlstream.Event
	err    string
}

// maxFuzzEvents bounds a run; every event consumes input or pops an element,
// so a well-behaved decoder ends far sooner.
const maxFuzzEvents = 1 << 14

// driveDecoder resets d over data and pulls events until an error. Each
// non-zero byte of ctl issues, before the matching Next, a SkipToClose at a
// depth chosen among the open ones. It fails t when the position moves
// backwards or passes the end of an open element.
func driveDecoder(t *testing.T, d *Decoder, data, ctl []byte) decodeRun {
	t.Helper()
	if err := d.Reset(NewBytesSource(data)); err != nil {
		return decodeRun{err: err.Error()}
	}
	var run decodeRun
	check := func(op string, before int64) {
		t.Helper()
		if d.off < before {
			t.Fatalf("%s moved the position back from %d to %d", op, before, d.off)
		}
		for depth, el := range d.stack {
			if d.off > el.endOff {
				t.Fatalf("%s left the position at %d, past the end %d of the element open at depth %d", op, d.off, el.endOff, depth)
			}
		}
	}
	for i := 0; i < maxFuzzEvents; i++ {
		if i < len(ctl) && ctl[i] != 0 {
			before := d.off
			if _, err := d.SkipToClose(int(ctl[i]) % len(d.stack)); err != nil && !errors.Is(err, ErrBadFormat) {
				t.Fatalf("SkipToClose: unexpected error class: %v", err)
			}
			check("SkipToClose", before)
		}
		before := d.off
		ev, err := d.Next()
		check("Next", before)
		if err != nil {
			run.err = err.Error()
			return run
		}
		run.events = append(run.events, ev)
	}
	t.Fatalf("decoder still producing events after %d", maxFuzzEvents)
	return run
}

// checkDecoder drives a fresh decoder and a reused one over data and
// compares them. The reused decoder first scans a valid encoding with the
// same dictionary as the seeds, then the first half of data (which usually
// fails), so both the kept-dictionary and the failed-run paths of Reset are
// exercised.
func checkDecoder(t *testing.T, warmup, data, ctl []byte) decodeRun {
	t.Helper()
	fresh := driveDecoder(t, &Decoder{}, data, ctl)
	reused := &Decoder{}
	driveDecoder(t, reused, warmup, ctl)
	driveDecoder(t, reused, data[:len(data)/2], ctl)
	if again := driveDecoder(t, reused, data, ctl); !reflect.DeepEqual(again, fresh) {
		t.Fatalf("reused decoder diverged from a fresh one:\nfresh:  %+v\nreused: %+v", fresh, again)
	}
	return fresh
}

func FuzzDecoder(f *testing.F) {
	enc, err := Encode(sampleDoc())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Data, []byte{})
	f.Add(enc.Data, []byte{0, 0, 2})
	f.Add(enc.Data, []byte{0, 0, 0, 0, 3, 0, 1})
	f.Add(enc.Data[:len(enc.Data)/2], []byte{})
	wide := xmlstream.NewElement("r")
	for _, tag := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
		wide.Children = append(wide.Children, xmlstream.NewElement(tag, xmlstream.Elem("x", "<&>"), xmlstream.Elem(tag, "")))
	}
	if other, err := Encode(wide); err == nil {
		f.Add(other.Data, []byte{0, 2, 0, 3})
	}
	f.Fuzz(func(t *testing.T, data, ctl []byte) {
		checkDecoder(t, enc.Data, data, ctl)
	})
}

// Inputs found by fuzzing the decoder when it checked neither a text length
// as unsigned nor an element's extent against its parent and its own header.
// The first made the decoder panic (makeslice: len out of range). The
// second let SkipToClose move the position back from 131 to 86, so the
// bytes in between were decoded twice.
var malformedDecoderInputs = []struct {
	name      string
	data, ctl string
}{
	{
		name: "text length overflows int64",
		data: "XSI1\n\x03000\x0500000\x03000\a0000000\n0000000000\x0500000\x06000000\b00000000\a0000000\x0500000;7\x7f\xf8\x00$\xffx\x001\xec0\x00\xce\x0500000\xa8\x0200270\x0087\x00\xe5\x0300000\xdb\xdb\xdb\xdb\xdb\xdb\xdb\xdb\xc01000000000000",
		ctl:  "0",
	},
	{
		name: "child extends past its parent",
		data: "XSI1\n\x03000\x0500000\x03000\a0000000\n0000000000\x0500000\x06000000\b00000000\a0000000\x0500000;7\x7f\xf8\x000\xffx0000000000000000000000000000000000000000000000000000",
		ctl:  "002",
	},
}

func TestDecoderMalformedRegressions(t *testing.T) {
	enc, err := Encode(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range malformedDecoderInputs {
		t.Run(tc.name, func(t *testing.T) {
			run := checkDecoder(t, enc.Data, []byte(tc.data), []byte(tc.ctl))
			if run.err == "" {
				t.Fatal("malformed input decoded without error")
			}
			if _, err := Decode([]byte(tc.data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("Decode: %v, want ErrBadFormat", err)
			}
		})
	}
}
