package xmlac

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"xmlac/internal/core"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	itrace "xmlac/internal/trace"
)

// Parallel intra-document scan: the region-parallel scan step of runView.
// The Skip index makes one document's scan decomposable
// (skipindex.PlanRegions), core.RunParallel keeps the view and its counters
// identical to the serial scan, and this file wires the two to the secure
// layer: one planning reader discovers the regions, each region worker gets
// its own secure reader and region decoder over the shared immutable
// ciphertext (secure.Reader is not goroutine-safe; the *secure.Protected
// beneath it is), and per-region trace contexts fork from the view's so
// worker lanes render side by side in the Chrome trace view.
//
// runView attempts it only for local documents (src is a *secure.Protected)
// when the view has no query and asks for two or more workers; any
// document/policy combination core.RunParallel vetoes falls back to the
// serial scan before a single byte reaches the sink, so callers never
// observe a difference beyond the cost fields documented on
// ViewOptions.Parallelism.

// regionsPerWorker is the planning ratio: the plan carves more regions than
// workers so the greedy byte balancing can absorb skewed subtrees (a worker
// that drew a cheap region picks up another instead of idling).
const regionsPerWorker = 4

// parallelFallback reports whether err means "this evaluation cannot ride
// the parallel scan": the caller falls back to the serial pipeline, which is
// always correct. Fallback errors are guaranteed to surface before any byte
// reaches a view sink, so the serial re-run never duplicates output.
func parallelFallback(err error) bool {
	return errors.Is(err, core.ErrNotParallelizable) || errors.Is(err, skipindex.ErrNotDecomposable)
}

// parallelScan plans the regions of a local protected document and runs
// the view over them concurrently. opts.Trace, when non-nil, is the trace
// context the planning reads are charged to and the parent the per-region
// contexts fork from. ctx, when non-nil, cancels the scan between events.
// A failed scan returns the error with the partial metrics of the work
// merged so far and the costs of every reader.
//
// The returned costs are a superset of the serial scan's: the planning reads
// and each region boundary falling inside an integrity chunk re-transfer and
// re-decrypt bytes the serial pass paid for once.
func parallelScan(ctx context.Context, prot *secure.Protected, key Key, workers int, cp *core.CompiledPolicy, opts core.Options) (*scanResult, error) {
	planner, err := secure.NewReader(prot, key)
	if err != nil {
		return nil, err
	}
	tr := opts.Trace
	if tr != nil {
		planner.SetTrace(tr)
		defer planner.SetTrace(nil)
	}
	plan, err := skipindex.PlanRegions(planner, workers*regionsPerWorker)
	if err != nil {
		return nil, err
	}
	if plan.RegionCount() < 2 {
		return nil, fmt.Errorf("%w: document has a single region", core.ErrNotParallelizable)
	}
	readers := make([]*secure.Reader, plan.RegionCount())
	rctxs := make([]*itrace.Context, plan.RegionCount())
	cfg := core.ParallelConfig{
		Ctx:              ctx,
		Workers:          workers,
		NumRegions:       plan.RegionCount(),
		Prefix:           plan.Prefix(),
		RootName:         plan.RootName(),
		RootDescTags:     plan.RootDescendantTags(),
		RootSkipDistance: plan.RootSkipDistance(),
		OpenRegion: func(r int) (core.RegionScanner, *itrace.Context, error) {
			rd, err := secure.NewReader(prot, key)
			if err != nil {
				return nil, nil, err
			}
			readers[r] = rd
			dec, err := skipindex.NewRegionDecoder(rd, plan, r)
			if err != nil {
				return nil, nil, err
			}
			var rctx *itrace.Context
			if tr != nil {
				rctx = tr.Fork()
				rd.SetTrace(rctx)
				dec.SetTrace(rctx)
			}
			rctxs[r] = rctx
			return dec, rctx, nil
		},
		CloseRegion: func(r int) {
			if rctxs[r] != nil {
				rctxs[r].Finish("region:"+strconv.Itoa(r), readers[r].Costs().BytesTransferred)
			}
		},
	}
	res, stats, err := core.RunParallel(cfg, cp, opts)
	if res == nil {
		return nil, err
	}
	sc := &scanResult{res: res, costs: planner.Costs(), skipped: res.Metrics.BytesSkipped, workers: stats.Workers}
	for r := range readers {
		if readers[r] != nil {
			sc.costs.Add(readers[r].Costs())
		}
		if rctxs[r] != nil {
			ph := breakdownFromPhases(rctxs[r].Phases())
			sc.regionPhases.Add(&ph)
		}
	}
	return sc, err
}
