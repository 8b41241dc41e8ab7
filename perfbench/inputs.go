package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

// physicianWeights is the share of each physician (DrA..DrH) in the doctor
// workload's request mix: the same 5:3:2:2:1:1:1:1 skew the hospital
// generator uses for the physicians responsible of acts.
var physicianWeights = []int{5, 3, 2, 2, 1, 1, 1, 1}

// Open-loop rates of store-update, in operations per second.
const (
	writerRate = 2.0
	readerRate = 8.0
)

// fnameShare is the share of store-update edits that rewrite a patient's
// first name with a text of another length (the re-encoding update path);
// the rest rewrite a phone number in place (same length).
const fnameShare = 7 // out of 10

// inputs is everything a run derives from its seed. The program under test
// receives only these; the same seed yields the same inputs.
type inputs struct {
	xml string
	// mix is the doctor workload's physician index (into dataset.Physicians)
	// for each successive view.
	mix []int
	// edits is store-update's writer stream, applied in order.
	edits []edit
	// warm and window hold the open-loop due offsets of each store-update
	// stream, one schedule for the warm-up and one for the measured window.
	warm, window schedules
}

type schedules struct{ writer, reader []time.Duration }

// edit is one PATCH of store-update: set the text of one Admin field of one
// folder.
type edit struct {
	folder int
	field  string
	text   string
}

func (e edit) xmlacEdit() xmlac.Edit {
	return xmlac.Edit{
		Op:   xmlac.EditSetText,
		Path: fmt.Sprintf("/Hospital/Folder[%d]/Admin/%s", e.folder, e.field),
		Text: e.text,
	}
}

// newInputs generates a run's inputs for a document of the given folder
// count. warm and window are the durations of the two measured phases.
func newInputs(folders int, seed uint64, warm, window time.Duration) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	in := &inputs{xml: xmlstream.SerializeTree(dataset.HospitalFolders(folders, seed), false)}
	in.mix = weightedMix(rng, physicianWeights, 4096)
	in.warm = schedules{
		writer: poissonSchedule(rng, writerRate, warm),
		reader: poissonSchedule(rng, readerRate, warm),
	}
	in.window = schedules{
		writer: poissonSchedule(rng, writerRate, window),
		reader: poissonSchedule(rng, readerRate, window),
	}
	in.edits = editStream(rng, folders, len(in.warm.writer)+len(in.window.writer))
	return in
}

// poissonSchedule returns the arrival offsets of a Poisson process of the
// given rate over d, conditioned on its expected count: round(rate*d)
// arrivals placed uniformly at random and sorted. Fixing the count keeps the
// offered load identical across seeds, so runs differ only in timing.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	n := int(math.Round(rate * d.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// weightedMix returns n indexes drawn so that every consecutive block of
// sum(weights) entries holds index i exactly weights[i] times, in a seeded
// order: the mix has the weights' proportions in every run, not only on
// average.
func weightedMix(rng *rand.Rand, weights []int, n int) []int {
	var block []int
	for i, w := range weights {
		for k := 0; k < w; k++ {
			block = append(block, i)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// editStream returns n edits over uniformly drawn folders, fnameShare in ten
// of them first-name rewrites whose length differs from the field's current
// text, the others same-length phone rewrites.
func editStream(rng *rand.Rand, folders, n int) []edit {
	fnameLen := map[int]int{} // current first-name length of edited folders
	var kinds []bool          // true: first-name edit
	out := make([]edit, n)
	for i := range out {
		if len(kinds) == 0 {
			for k := 0; k < 10; k++ {
				kinds = append(kinds, k < fnameShare)
			}
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		isFname := kinds[0]
		kinds = kinds[1:]
		folder := 1 + rng.IntN(folders)
		if !isFname {
			out[i] = edit{folder: folder, field: "Phone", text: digits(rng, 10)}
			continue
		}
		// Generated first names are 4..9 letters; rewrites use 10..14, and
		// never the length the field already has.
		length := 10 + rng.IntN(5)
		if length == fnameLen[folder] {
			length = 10 + (length-10+1+rng.IntN(4))%5
		}
		fnameLen[folder] = length
		out[i] = edit{folder: folder, field: "Fname", text: letters(rng, length)}
	}
	return out
}

func digits(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('0' + rng.IntN(10)))
	}
	return b.String()
}

func letters(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + rng.IntN(26)))
	}
	return b.String()
}
