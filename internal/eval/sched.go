package eval

import (
	"context"
	"sort"
	"sync"
	"time"

	"assertionbench/internal/bench"
	"assertionbench/internal/verilog"
)

// Cost-aware work-stealing dispatch. The planner predicts each design's
// verification cost — the journaled wall time of a prior run when the
// cost journal (bench.LoadCost, persisted through the artifact store)
// has one, a static estimate from the compiled program otherwise — and
// assigns jobs largest-first across per-worker deques (classic LPT: each
// job goes to the least-loaded worker, so no worker is left holding a
// straggler the others cannot help with). Each owner then drains its own
// deque cheapest-first — shortest-processing-time order, which minimizes
// the completion-time percentiles the tail gate measures — while an idle
// worker steals the costliest pending job from the most-loaded victim,
// so a mispredicted heavy job still ends up shared instead of pinning
// one worker.
//
// Dispatch order never touches output: every completed job is keyed by
// its global corpus index into the in-order reorder buffer, so
// Stream/Run/shard concatenation stay byte-identical to a sequential
// walk at the same seed (dverify oracle 10, mutation-tested through
// SchedIndexHook).

// SchedIndexHook, when non-nil, remaps a completed job's corpus index to
// its slot in the in-order reorder buffer. It exists solely as a
// mutation seam for the differential harness: oracle 10's mutation test
// installs an index swap to prove the scheduled-vs-sequential comparison
// actually fails when the merge path misroutes a result — exactly the
// bug class reordered dispatch could introduce and result comparison
// must catch. Never set in production.
var SchedIndexHook func(int) int

// schedJob is one planned unit of work: a local design index and its
// predicted cost (microsecond scale; relative order is all that
// matters).
type schedJob struct {
	idx  int
	cost uint64
}

// workerDeque is one worker's planned queue, ordered costliest-first:
// the owner pops the tail (cheapest), thieves pop the head (costliest).
type workerDeque struct {
	mu   sync.Mutex
	jobs []schedJob
	load uint64
}

func (q *workerDeque) popTail() (schedJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.jobs)
	if n == 0 {
		return schedJob{}, false
	}
	j := q.jobs[n-1]
	q.jobs = q.jobs[:n-1]
	q.load -= j.cost
	return j, true
}

func (q *workerDeque) popHead() (schedJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return schedJob{}, false
	}
	j := q.jobs[0]
	q.jobs = q.jobs[1:]
	q.load -= j.cost
	return j, true
}

func (q *workerDeque) remaining() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.load
}

// scheduler holds the planned deques for one run.
type scheduler struct {
	queues   []*workerDeque
	stealing bool
}

// next returns worker w's next job: its own cheapest pending job, or —
// when its deque is dry and stealing is on — the costliest pending job
// of the most-loaded victim. ok=false means the run is out of work for
// this worker.
func (s *scheduler) next(w int) (schedJob, bool) {
	if j, ok := s.queues[w].popTail(); ok {
		return j, true
	}
	if !s.stealing {
		return schedJob{}, false
	}
	for {
		victim := -1
		var max uint64
		for i, q := range s.queues {
			if i == w {
				continue
			}
			if load := q.remaining(); load > max {
				victim, max = i, load
			}
		}
		if victim < 0 {
			return schedJob{}, false
		}
		if j, ok := s.queues[victim].popHead(); ok {
			return j, true
		}
		// Raced another thief to the victim's last job; loads only
		// shrink, so rescanning terminates.
	}
}

// newScheduler plans the run. Cost mode sorts jobs by descending
// predicted cost (ties broken by ascending index, so plans are
// deterministic) and LPT-assigns each to the least-loaded worker;
// contiguous mode reproduces the balanced contiguous split the shard
// contract uses, with stealing off. Indices in skip — designs a
// resumed run serves from its manifest — are never planned at all, so
// a resume does zero work (not even cost prediction) for them.
func newScheduler(ctx context.Context, designs []bench.Design, workers int, contiguous bool, skip map[int]bool) *scheduler {
	s := &scheduler{queues: make([]*workerDeque, workers)}
	for w := range s.queues {
		s.queues[w] = &workerDeque{}
	}
	if contiguous {
		// Worker w owns designs [start, start+size): the first
		// len%workers workers take one extra. Appended in reverse so the
		// owner's tail pop walks the slice in index order.
		base, extra := len(designs)/workers, len(designs)%workers
		start := 0
		for w := 0; w < workers; w++ {
			size := base
			if w < extra {
				size++
			}
			q := s.queues[w]
			for i := start + size - 1; i >= start; i-- {
				if skip[i] {
					continue
				}
				q.jobs = append(q.jobs, schedJob{idx: i, cost: 1})
				q.load++
			}
			start += size
		}
		return s
	}
	s.stealing = true
	costs := make([]uint64, len(designs))
	for i := range designs {
		if skip[i] || ctx.Err() != nil {
			// A canceled run plans nothing further; workers will see the
			// cancellation before evaluating whatever is queued. Skipped
			// (resume-resolved) designs are never even predicted.
			costs[i] = 1
			continue
		}
		costs[i] = predictCost(designs[i])
	}
	order := make([]int, len(designs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if costs[ia] != costs[ib] {
			return costs[ia] > costs[ib]
		}
		return ia < ib
	})
	for _, i := range order {
		if skip[i] {
			continue
		}
		w := 0
		for v := 1; v < workers; v++ {
			if s.queues[v].load < s.queues[w].load {
				w = v
			}
		}
		q := s.queues[w]
		q.jobs = append(q.jobs, schedJob{idx: i, cost: costs[i]})
		q.load += costs[i]
	}
	return s
}

// predictCost estimates one design's verification wall time in
// microseconds: the cost journal's observation when one exists
// (elaboration goes through the process-wide cache, so the planner's
// walk is amortized against the workers' own lookups), a static
// estimate from the compiled program otherwise. A design that fails to
// elaborate is nearly free — its job errors immediately.
func predictCost(d bench.Design) uint64 {
	nl, err := bench.Elaborate(d)
	if err != nil {
		return 1
	}
	if w, ok := bench.LoadCost(nl); ok {
		return uint64(w/time.Microsecond) + 1
	}
	return staticCost(nl)
}

// staticCost is the cold-start cost model: explored states times
// per-state step cost. State count is capped the way the engine's own
// bounded mode caps it (wide designs degrade to sampled search whose
// work is roughly the same cap), and the per-step cost follows the
// compiled program's instruction count. The scale roughly lands in
// microseconds, but only the relative order matters — and after one run
// the journal overrides it with measurements.
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
