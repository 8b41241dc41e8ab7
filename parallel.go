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

// Parallel intra-document scan: the region-parallel scan step of runViews.
// The Skip index makes one
// document's scan decomposable (skipindex.PlanRegions), core.RunParallel
// keeps every per-subject observable identical to the serial scan, and this
// file wires the two to the secure layer: one planning reader discovers the
// regions, each region worker gets its own secure reader and region decoder
// over the shared immutable ciphertext (secure.Reader is not goroutine-safe;
// the *secure.Protected beneath it is), and per-region trace contexts fork
// from the evaluation's so worker lanes render side by side in the Chrome
// trace view.
//
// runViews attempts it only for local documents (src is a *secure.Protected)
// when no view has a query and some view asks for two or more workers; any
// document/policy combination core.RunParallel vetoes falls back to the
// serial scan before a single byte reaches a sink, so callers never observe
// a difference beyond the cost fields documented on ViewOptions.Parallelism.

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

// parallelScan plans the regions of a local protected document and runs the
// subjects over them concurrently. shared, when non-nil, is the trace
// context the planning reads are charged to and the parent the per-region
// contexts fork from. ctx, when non-nil, cancels the scan between events.
//
// The returned costs are a superset of the serial scan's: the planning reads
// and each region boundary falling inside an integrity chunk re-transfer and
// re-decrypt bytes the serial pass paid for once.
func parallelScan(ctx context.Context, prot *secure.Protected, key Key, workers int, subjects []core.ParallelSubject, shared *itrace.Context) (*scanResult, error) {
	planner, err := secure.NewReader(prot, key)
	if err != nil {
		return nil, err
	}
	if shared != nil {
		planner.SetTrace(shared)
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
			dec, err := skipindex.NewRegionDecoder(rd, plan, r)
			if err != nil {
				return nil, nil, err
			}
			var rctx *itrace.Context
			if shared != nil {
				rctx = shared.Fork()
				rd.SetTrace(rctx)
				dec.SetTrace(rctx)
			}
			readers[r], rctxs[r] = rd, rctx
			return dec, rctx, nil
		},
		CloseRegion: func(r int) {
			if rctxs[r] != nil {
				rctxs[r].Finish("region:"+strconv.Itoa(r), readers[r].Costs().BytesTransferred)
			}
		},
	}
	outcomes, stats, err := core.RunParallel(cfg, subjects)
	if err != nil {
		return nil, err
	}
	res := &scanResult{outcomes: outcomes, workers: stats.Workers, costs: planner.Costs()}
	for r := range readers {
		if readers[r] != nil {
			res.costs.Add(readers[r].Costs())
		}
		if rctxs[r] != nil {
			ph := breakdownFromPhases(rctxs[r].Phases())
			res.regionPhases.Add(&ph)
		}
	}
	return res, nil
}
