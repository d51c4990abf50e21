package eval

import (
	"context"
	"reflect"
	"testing"

	"assertionbench/internal/llm"
)

// dispatchPlans names the two dispatch plans the tests cover: the
// default cost-planned work stealing and the contiguous reference.
var dispatchPlans = []struct {
	name       string
	contiguous bool
}{{"cost", false}, {"contiguous", true}}

// TestDispatchModesByteIdentical is the scheduling half of the merge
// contract: every dispatch plan must reproduce the sequential reference
// exactly — outcome for outcome, field for field — at the same seed.
func TestDispatchModesByteIdentical(t *testing.T) {
	e := testExperiment(t, 12)
	gen := NewModelGenerator(llm.GPT4o())
	base := RunOptions{Shots: 5, UseCorrector: true, Seed: 7}

	seqOpt := base
	seqOpt.Workers = 1
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range dispatchPlans {
		t.Run(plan.name, func(t *testing.T) {
			opt := base
			opt.Workers = 4
			opt.Contiguous = plan.contiguous
			got, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s dispatch differs from sequential\nseq: %+v\ngot: %+v", plan.name, ref.Metrics, got.Metrics)
			}
		})
	}
}

// TestSchedIndexHookBreaksIdentity proves the oracle-10 mutation seam is
// observable: misrouting two reorder-buffer slots must make the
// scheduled stream differ from the sequential reference (and must not
// wedge the emitter — the swap is a bijection, so every slot fills).
func TestSchedIndexHookBreaksIdentity(t *testing.T) {
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT35())
	base := RunOptions{Shots: 1, UseCorrector: true, Seed: 3}

	seqOpt := base
	seqOpt.Workers = 1
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, seqOpt)
	if err != nil {
		t.Fatal(err)
	}

	SchedIndexHook = func(i int) int {
		switch i {
		case 0:
			return 1
		case 1:
			return 0
		}
		return i
	}
	defer func() { SchedIndexHook = nil }()

	opt := base
	opt.Workers = 4
	got, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Designs) != len(ref.Designs) {
		t.Fatalf("mutated run yielded %d outcomes, want %d", len(got.Designs), len(ref.Designs))
	}
	if reflect.DeepEqual(ref, got) {
		t.Fatal("index-swap mutation was not observable in the stream")
	}
}

// TestSchedulerPlans pins the planner's structure: contiguous mode
// partitions the corpus into balanced contiguous slices consumed in
// index order; cost mode covers every index exactly once and hands the
// most expensive work out first when stolen.
func TestSchedulerPlans(t *testing.T) {
	e := testExperiment(t, 10)
	designs := e.Corpus

	t.Run("contiguous", func(t *testing.T) {
		s := newScheduler(context.Background(), designs, 3, true, nil)
		if s.stealing {
			t.Error("contiguous plan must not steal")
		}
		// 10 designs over 3 workers: 4+3+3, contiguous, owner pops in
		// index order.
		wantSizes := []int{4, 3, 3}
		next := 0
		for w, q := range s.queues {
			if len(q.jobs) != wantSizes[w] {
				t.Fatalf("worker %d holds %d jobs, want %d", w, len(q.jobs), wantSizes[w])
			}
			for range wantSizes[w] {
				j, ok := q.popTail()
				if !ok || j.idx != next {
					t.Fatalf("worker %d popped idx %d (ok=%v), want %d", w, j.idx, ok, next)
				}
				next++
			}
		}
	})

	t.Run("cost", func(t *testing.T) {
		s := newScheduler(context.Background(), designs, 3, false, nil)
		if !s.stealing {
			t.Error("cost plan must steal")
		}
		seen := make(map[int]bool)
		for w := range s.queues {
			for _, j := range s.queues[w].jobs {
				if seen[j.idx] {
					t.Fatalf("index %d planned twice", j.idx)
				}
				seen[j.idx] = true
			}
			// Owner order is cheapest-last (tail pop = SPT).
			for k := 1; k < len(s.queues[w].jobs); k++ {
				if s.queues[w].jobs[k].cost > s.queues[w].jobs[k-1].cost {
					t.Fatalf("worker %d deque not sorted costliest-first", w)
				}
			}
		}
		if len(seen) != len(designs) {
			t.Fatalf("plan covers %d designs, want %d", len(seen), len(designs))
		}
		// A worker with a dry deque steals the costliest pending job of
		// the most-loaded victim.
		for range len(s.queues[0].jobs) {
			s.queues[0].popTail()
		}
		victim, max := -1, uint64(0)
		for i := 1; i < len(s.queues); i++ {
			if load := s.queues[i].remaining(); load > max {
				victim, max = i, load
			}
		}
		if victim < 0 {
			t.Skip("no loaded victim on this corpus")
		}
		wantIdx := s.queues[victim].jobs[0].idx
		j, ok := s.next(0)
		if !ok || j.idx != wantIdx {
			t.Fatalf("steal returned idx %d (ok=%v), want head of worker %d (idx %d)", j.idx, ok, victim, wantIdx)
		}
	})
}
