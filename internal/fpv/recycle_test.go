package fpv

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// loopDedupEdges is dedupEdges as a loop that compares each edge with
// every earlier representative of its node: the reference the class
// table must reproduce, representative for representative and row for
// row.
func loopDedupEdges(g *Graph, u int32, rows []uint64) {
	off := g.EdgeOff[u]
	nSup := len(g.Support)
	start := len(g.Dedup)
	g.DedupOff[u] = int32(start)
outer:
	for le := 0; le < g.EdgesPerNode; le++ {
		e := off + int32(le)
		row := rows[le*nSup : (le+1)*nSup]
		for ri, r := range g.Dedup[start:] {
			if g.Dst[r] == g.Dst[e] && slices.Equal(g.Rows.row(start+ri), row) {
				continue outer
			}
		}
		g.Dedup = pushI32(g.Dedup, e)
		g.Rows.push(row)
	}
	g.DedupN[u] = int32(len(g.Dedup) - start)
}

// TestDedupEdgesMatchesLoop builds chunky graphs over a narrow and a
// wide support union at both widen budgets (the 9 input bits enumerated,
// and sampled), then forms every expanded node's classes again with
// loopDedupEdges from the node's settled rows, in the order the engine
// formed them. Dedup, DedupOff, DedupN and Rows must equal the engine's.
func TestDedupEdgesMatchesLoop(t *testing.T) {
	unions := map[string][]string{
		"narrow": {narrowProp},
		"wide":   {narrowProp, "rst == 0 && x == 3 && a == 2 |=> x == 5"},
	}
	for _, b := range widenBudgets {
		for _, un := range []string{"narrow", "wide"} {
			t.Run(b.name+"/"+un, func(t *testing.T) {
				nl := elab(t, chunkySrc, "chunky")
				var cache GraphCache
				e := NewEngine()
				e.Graphs = &cache
				e.VerifyBatch(context.Background(), nl, compileAll(t, nl, unions[un]), b.opt)
				g, _ := cache.newestGraph()
				var order []int32
				merged, split := false, false
				for u, off := range g.DedupOff {
					if off >= 0 {
						order = append(order, int32(u))
						merged = merged || int(g.DedupN[u]) < g.EdgesPerNode
						split = split || g.DedupN[u] > 1
					}
				}
				if !merged || !split || len(order) < 10 {
					t.Fatalf("test premise: %d expanded nodes, some with merged edges (%t) and some with several classes (%t)", len(order), merged, split)
				}
				sort.Slice(order, func(i, j int) bool { return g.DedupOff[order[i]] < g.DedupOff[order[j]] })
				ref := g.widen(g.Support)
				for _, u := range order {
					rows, err := e.settledRows(ref, u)
					if err != nil {
						t.Fatal(err)
					}
					loopDedupEdges(ref, u, rows)
				}
				if !slices.Equal(ref.Dedup, g.Dedup) || !slices.Equal(ref.DedupOff, g.DedupOff) || !slices.Equal(ref.DedupN, g.DedupN) {
					t.Fatal("representatives differ from the loop's")
				}
				if ref.Rows.n != g.Rows.n {
					t.Fatalf("%d rows, the loop kept %d", g.Rows.n, ref.Rows.n)
				}
				for i := 0; i < g.Rows.n; i++ {
					if !slices.Equal(ref.Rows.row(i), g.Rows.row(i)) {
						t.Fatalf("row %d differs from the loop's", i)
					}
				}
			})
		}
	}
}

// sameArray reports whether two slices share their backing array's
// first element.
func sameArray[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// reusedChunk reports whether any chunk of s is one of old's.
func reusedChunk(old, s *rowStore) bool {
	for _, c := range s.chunks {
		for _, o := range old.chunks {
			if sameArray(c, o) {
				return true
			}
		}
	}
	return false
}

// TestRecycledStorageNeverReachesResult drives one cache-less engine
// through batches whose graphs reuse the storage of the batch before:
// an enumerated batch and then a bounded one, a wide support union and
// then a narrow one, another design, and a batch cancelled mid-search
// followed by more batches. Every result, CEX stimulus included, must
// deep-equal a fresh engine's, compared after the last batch, when the
// storage of every earlier graph has been written over.
func TestRecycledStorageNeverReachesResult(t *testing.T) {
	chunky := elab(t, chunkySrc, "chunky")
	counter := elab(t, counterSrc, "counter")
	enum, bounded := widenBudgets[0].opt, widenBudgets[1].opt
	wide := append(slices.Clone(wideProps), narrowProp, "b == 1 |-> y != 200")
	narrow := []string{narrowProp}
	steps := []struct {
		name   string
		src    string
		props  []string
		opt    Options
		cancel bool // cancel halfway through the batch's context polls
	}{
		{"enumerate wide", "chunky", wide, enum, false},
		{"bounded narrow", "chunky", narrow, bounded, false},
		{"counter", "counter", batchCases[0].props, Options{MaxProductStates: 400, MaxInputSamples: 6, RandomRuns: 8, RandomDepth: 24, Seed: 9}, false},
		{"bounded wide", "chunky", wide, bounded, false},
		{"enumerate cancelled", "chunky", append(slices.Clone(narrow), wide...), enum, true},
		{"enumerate narrow", "chunky", narrow, enum, false},
		{"bounded cancelled", "chunky", wide, bounded, true},
		{"bounded wide again", "chunky", wide, bounded, false},
	}
	e := NewEngine()
	reused := 0
	got := make([][]Result, len(steps))
	want := make([][]Result, len(steps))
	for k, st := range steps {
		nl := chunky
		if st.src == "counter" {
			nl = counter
		}
		cs := compileAll(t, nl, st.props)
		ctx := func() context.Context { return context.Background() }
		if st.cancel {
			probe := &countdownCtx{Context: context.Background(), n: 1 << 30}
			NewEngine().VerifyBatch(probe, nl, cs, st.opt)
			half := (1<<30 - probe.n) / 2
			ctx = func() context.Context { return &countdownCtx{Context: context.Background(), n: half} }
		}
		prev := e.spare
		got[k] = e.VerifyBatch(ctx(), nl, cs, st.opt)
		want[k] = NewEngine().VerifyBatch(ctx(), nl, cs, st.opt)
		if st.cancel {
			decided := slices.IndexFunc(got[k], func(r Result) bool { return r.Err == nil })
			cancelled := slices.IndexFunc(got[k], func(r Result) bool { return r.Err != nil })
			if decided < 0 || cancelled < 0 {
				t.Errorf("test premise: %s decides some properties and cancels others", st.name)
			}
		}
		if g := e.spare; prev != nil && g != nil && sameArray(prev.Packed, g.Packed) && reusedChunk(&prev.Rows, &g.Rows) {
			reused++
		}
	}
	for k, st := range steps {
		for i := range want[k] {
			if d := diffResult(got[k][i], want[k][i]); d != "" {
				t.Errorf("%s: %q differs from a fresh engine's: %s", st.name, st.props[i], d)
			}
		}
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("%s: results differ from a fresh engine's", st.name)
		}
	}
	if reused < len(steps)/2 {
		t.Errorf("test premise: %d of %d batches reused the graph arrays and row chunks before them", reused, len(steps)-1)
	}
}

// TestRecycledRowStoreMatchesFlat: a store recycled from another, at
// the same width or another, reads back like a flat array through
// random pushes, grows and truncates, holds no chunk twice, and takes
// the old store's full chunks before making new ones.
func TestRecycledRowStoreMatchesFlat(t *testing.T) {
	took := 0
	for _, w := range []int{1, 3, 7} {
		for _, w2 := range []int{1, 3, 7} {
			rng := rand.New(rand.NewSource(int64(10*w + w2)))
			src := &rowModel{s: newRowStore(w)}
			for src.s.n < 3<<src.s.shift {
				src.step(rng)
			}
			old := src.s
			m := &rowModel{s: src.s.recycle(w2)}
			for i := 0; i < 60; i++ {
				m.step(rng)
				m.check(t, "recycled")
				all := append(slices.Clone(m.s.chunks), m.s.free...)
				for a := range all {
					for b := a + 1; b < len(all); b++ {
						if sameArray(all[a], all[b]) {
							t.Fatalf("w %d -> %d: chunks %d and %d share storage", w, w2, a, b)
						}
					}
				}
			}
			if reusedChunk(&old, &m.s) {
				took++
			}
		}
	}
	if took == 0 {
		t.Error("no recycled store took a chunk of the store it came from")
	}
}
