package eval

import (
	"context"
	"sort"

	"assertionbench/internal/bench"
	"assertionbench/internal/verilog"
)

// Dispatch order for the worker pool. Workers take jobs from one shared
// counter over a list planned up front: the designs a resume did not
// serve, costliest first by the static cost model, ties broken by
// ascending corpus index so the plan is deterministic. Greedy dispatch
// finishes within one job of the per-worker average, and handing the
// heavy designs out first makes that last job a cheap one, as far as
// the estimate is right.
//
// Dispatch order never touches output: every completed job is keyed by
// its global corpus index into the in-order reorder buffer, so
// Stream/Run/shard concatenation stay byte-identical to a sequential
// walk at the same seed (dverify oracle 3, mutation-tested through
// SchedIndexHook).

// SchedIndexHook, when non-nil, remaps a completed job's corpus index to
// its slot in the in-order reorder buffer. It exists solely as a
// mutation seam for the differential harness: oracle 3's mutation test
// installs an index swap to prove the parallel-vs-sequential comparison
// actually fails when the merge path misroutes a result — exactly the
// bug class out-of-order dispatch could introduce and result comparison
// must catch. Never set in production.
var SchedIndexHook func(int) int

// dispatchOrder plans the run: the local indices of every design not in
// skip (designs a resumed run serves from their records, which are never
// even costed), by descending staticCost with ascending index on ties.
// A canceled run stops costing; workers see the cancellation before
// evaluating whatever is planned.
func dispatchOrder(ctx context.Context, designs []bench.Design, skip map[int]bool) []int {
	costs := make([]uint64, len(designs))
	order := make([]int, 0, len(designs))
	for i, d := range designs {
		if skip[i] {
			continue
		}
		order = append(order, i)
		if ctx.Err() == nil {
			costs[i] = predictCost(d)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if costs[ia] != costs[ib] {
			return costs[ia] > costs[ib]
		}
		return ia < ib
	})
	return order
}

// predictCost estimates one design's verification cost (elaboration goes
// through the process-wide cache, so the planner's walk is amortized
// against the workers' own lookups). A design that fails to elaborate is
// nearly free — its job errors immediately.
func predictCost(d bench.Design) uint64 {
	nl, err := bench.Elaborate(d)
	if err != nil {
		return 1
	}
	return staticCost(nl)
}

// staticCost is the cost model: explored states times per-state step
// cost. State count is capped the way the engine's own bounded mode caps
// it (wide designs degrade to sampled search whose work is roughly the
// same cap), and the per-step cost follows the compiled program's
// instruction count. The scale roughly lands in microseconds, but only
// the relative order matters.
func staticCost(nl *verilog.Netlist) uint64 {
	sb := nl.StateBits()
	if sb > 20 {
		sb = 20
	}
	states := uint64(1) << uint(sb)
	if states > 4096 {
		states = 4096
	}
	step := uint64(len(nl.Program().Code)) + 16
	return states*step/100 + 1
}
