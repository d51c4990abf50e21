package fpv

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"assertionbench/internal/astore"
)

// widenBudgets are the budgets the widen tests run at over the full
// chunky design: the 9 input bits enumerated (512 edges a node), and
// sampled (8 edges a node, with a hunt).
var widenBudgets = []struct {
	name string
	opt  Options
}{
	{"enumerate", Options{MaxProductStates: 600, MaxInputBits: 9, RandomRuns: 2, RandomDepth: 16, Seed: 5, NoStatic: true, FullDesign: true}},
	{"bounded", Options{MaxProductStates: 300, MaxInputBits: 2, MaxInputSamples: 6, RandomRuns: 4, RandomDepth: 64, Seed: 5, NoStatic: true, FullDesign: true}},
}

// sameGraph compares two graphs' contents. A copy-on-write row store's
// count of borrowed chunks records where its chunks came from, not what
// it holds, so it is left out.
func sameGraph(a, b *Graph) bool {
	x, y := *a, *b
	x.Rows.shared, x.Vecs.shared, y.Rows.shared, y.Vecs.shared = 0, 0, 0, 0
	return reflect.DeepEqual(x, y)
}

// checkWidened checks that widened kept stale's skeleton: the node
// states and edges stale holds start widened's arrays, every node stale
// expanded keeps its edges, and each expansion since stepped a state
// stale had not expanded, once.
func checkWidened(t *testing.T, stale, widened *Graph) {
	t.Helper()
	if widened == stale || !subsetOf(stale.Support, widened.Support) || len(widened.Support) == len(stale.Support) {
		t.Fatalf("test premise: a wider graph (support %v, then %v)", stale.Support, widened.Support)
	}
	if len(widened.Packed) < len(stale.Packed) || !slices.Equal(widened.Packed[:len(stale.Packed)], stale.Packed) {
		t.Error("the widened graph's node states do not start with the stale graph's")
	}
	if len(widened.Dst) < len(stale.Dst) || !slices.Equal(widened.Dst[:len(stale.Dst)], stale.Dst) {
		t.Error("the widened graph's edges do not start with the stale graph's")
	}
	rerowed := 0
	for i, off := range stale.EdgeOff {
		if off >= 0 {
			if widened.EdgeOff[i] != off {
				t.Fatalf("node %d moved its edges from %d to %d", i, off, widened.EdgeOff[i])
			}
			if widened.DedupOff[i] >= 0 {
				rerowed++
			}
		}
	}
	for i, off := range widened.EdgeOff {
		if int(off) >= len(stale.Dst) && i < stale.Nodes && stale.EdgeOff[i] >= 0 {
			t.Fatalf("node %d, expanded in the stale graph, was stepped again", i)
		}
	}
	if added := widened.Expanded - stale.Expanded; len(widened.Dst)-len(stale.Dst) != added*widened.EdgesPerNode {
		t.Errorf("%d expansions appended %d edges, want %d each", added, len(widened.Dst)-len(stale.Dst), widened.EdgesPerNode)
	}
	if rerowed == 0 {
		t.Error("test premise: the wider batch re-rowed no node of the stale graph")
	}
}

// TestUnionMissWidensGraph verifies a narrow batch and then a wider one
// on one GraphCache. The wider batch misses the narrow graph's union and
// widens it: every result must equal a cache-less engine's, field for
// field, and the wider batch must step no state the narrow one already
// expanded. The wide properties are refuted only through edges that the
// narrow union's classes merge, so a widen that kept those classes would
// return other counter-examples.
func TestUnionMissWidensGraph(t *testing.T) {
	for _, b := range widenBudgets {
		t.Run(b.name, func(t *testing.T) {
			nl := elab(t, chunkySrc, "chunky")
			narrow := compileAll(t, nl, []string{narrowProp})
			wideSrc := append(slices.Clone(wideProps), narrowProp)
			wide := compileAll(t, nl, wideSrc)
			// The wider batch searches deeper, so it re-rows stale nodes
			// and expands new ones.
			deep := b.opt
			deep.MaxProductStates *= 2
			var cache GraphCache
			e := NewEngine()
			e.Graphs = &cache
			got := e.VerifyBatch(context.Background(), nl, narrow, b.opt)
			stale, _ := cache.newestGraph()
			got = append(got, e.VerifyBatch(context.Background(), nl, wide, deep)...)
			widened, _ := cache.newestGraph()
			if stale.Enumerate != (b.name == "enumerate") {
				t.Fatalf("test premise: enumerate %t", stale.Enumerate)
			}
			want := append(NewEngine().VerifyBatch(context.Background(), nl, narrow, b.opt),
				NewEngine().VerifyBatch(context.Background(), nl, wide, deep)...)
			for i, src := range append([]string{narrowProp}, wideSrc...) {
				if d := diffResult(got[i], want[i]); d != "" {
					t.Errorf("%q: differs from a cache-less engine: %s", src, d)
				}
			}
			for i, r := range want[1:3] {
				if r.Status != StatusCEX {
					t.Errorf("test premise: %q is refuted, got %v", wideProps[i], r.Status)
				}
			}
			checkWidened(t, stale, widened)
			if widened.Expanded == stale.Expanded {
				t.Error("test premise: the deeper batch expanded no new node")
			}
		})
	}
}

// TestWidenedGraphRoundTrips: a widened graph that still holds expanded
// nodes without rows goes through the codec and the disk tier. It must
// decode to an equal graph; a warm engine must load it from the store,
// serve it without rebuilding or rewriting it, and return the cache-less
// results; and the warm engine's narrow batch must re-row those nodes
// without expanding any.
func TestWidenedGraphRoundTrips(t *testing.T) {
	for _, b := range widenBudgets {
		t.Run(b.name, func(t *testing.T) {
			store, err := astore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cold := &GraphCache{}
			cold.SetDisk(store)
			stale, g, err := widenChunkyGraph(cold, b.opt)
			if err != nil {
				t.Fatal(err)
			}
			_, ht := cold.newestGraph()
			if rowless(g) == 0 {
				t.Fatal("test premise: the widened graph re-rowed every expanded node")
			}
			if g.Expanded != stale.Expanded {
				t.Fatalf("test premise: the wide batch expands nothing (%d expansions, then %d)", stale.Expanded, g.Expanded)
			}
			blob := EncodeGraph(g, ht)
			g2, ht2, err := DecodeGraph(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(g, g2) || !reflect.DeepEqual(ht, ht2) {
				t.Fatal("the decoded widened graph differs")
			}
			if !bytes.Equal(blob, EncodeGraph(g2, ht2)) {
				t.Fatal("encoding is not deterministic across a decode round-trip")
			}
			var key string
			for k := range cold.m { //ab:allow maprange (the cache holds one exploration)
				key = k.diskKey()
			}
			if stored, ok := store.Get(astore.KindGraph, key); !ok || !bytes.Equal(stored, blob) {
				t.Fatal("test premise: the store holds the widened graph")
			}

			nl := elab(t, chunkySrc, "chunky")
			wide := compileAll(t, nl, wideProps)
			narrow := compileAll(t, nl, []string{narrowProp})
			warm := &GraphCache{}
			warm.SetDisk(store)
			e := NewEngine()
			e.Graphs = warm
			hits := store.Hits()
			got := e.VerifyBatch(context.Background(), nl, wide, b.opt)
			want := NewEngine().VerifyBatch(context.Background(), nl, wide, b.opt)
			for i := range want {
				if d := diffResult(got[i], want[i]); d != "" {
					t.Errorf("%q over the stored widened graph: %s", wideProps[i], d)
				}
			}
			if store.Hits() == hits {
				t.Fatal("the warm engine did not read the store")
			}
			if served, _ := warm.newestGraph(); !sameGraph(served, g) {
				t.Error("the warm engine did not serve the stored graph as it was")
			}
			if stored, _ := store.Get(astore.KindGraph, key); !bytes.Equal(stored, blob) {
				t.Error("serving the stored graph rewrote it")
			}

			got = e.VerifyBatch(context.Background(), nl, narrow, b.opt)
			want = NewEngine().VerifyBatch(context.Background(), nl, narrow, b.opt)
			if d := diffResult(got[0], want[0]); d != "" {
				t.Errorf("%q over the stored widened graph: %s", narrowProp, d)
			}
			after, _ := warm.newestGraph()
			if after.Expanded != g.Expanded || rowless(after) >= rowless(g) {
				t.Errorf("the narrow batch re-rowed %d of %d rowless nodes and expanded %d", rowless(g)-rowless(after), rowless(g), after.Expanded-g.Expanded)
			}
		})
	}
}

// TestConcurrentUnionMisses: two engines, each on its own goroutine,
// miss the same cached graph at once and widen it privately. Each must
// return exactly what a cache-less engine returns, and the race detector
// must see no write to the shared stale graph.
func TestConcurrentUnionMisses(t *testing.T) {
	for _, b := range widenBudgets {
		t.Run(b.name, func(t *testing.T) {
			nl := elab(t, chunkySrc, "chunky")
			var cache GraphCache
			e := NewEngine()
			e.Graphs = &cache
			e.VerifyBatch(context.Background(), nl, compileAll(t, nl, []string{narrowProp}), b.opt)
			stale, _ := cache.newestGraph()
			wideSrc := append(slices.Clone(wideProps), narrowProp)
			wide := compileAll(t, nl, wideSrc)
			// The deep search runs long enough that both engines have
			// looked up the narrow graph before the first publishes.
			deep := b.opt
			deep.MaxProductStates *= 2
			want := NewEngine().VerifyBatch(context.Background(), nl, wide, deep)
			got := make([][]Result, 2)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := NewEngine()
					e.Graphs = &cache
					<-start
					got[i] = e.VerifyBatch(context.Background(), nl, wide, deep)
				}()
			}
			close(start)
			wg.Wait()
			for i, res := range got {
				for j := range want {
					if d := diffResult(res[j], want[j]); d != "" {
						t.Errorf("engine %d, %q: differs from a cache-less engine: %s", i, wideSrc[j], d)
					}
				}
			}
			widened, _ := cache.newestGraph()
			checkWidened(t, stale, widened)
		})
	}
}
