package fpv

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"assertionbench/internal/astore"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

func compileAll(t *testing.T, nl *verilog.Netlist, props []string) []*sva.Compiled {
	t.Helper()
	var cs []*sva.Compiled
	for _, p := range props {
		a, err := sva.Parse(p)
		if err != nil {
			t.Fatalf("parse %q: %v", p, err)
		}
		c, err := sva.Compile(a, nl)
		if err != nil {
			t.Fatalf("compile %q: %v", p, err)
		}
		cs = append(cs, c)
	}
	return cs
}

// capacityFloor sums the capacity of every array an exploration holds:
// each row chunk and each flat array.
func capacityFloor(g *Graph, ht *HuntTrace) int64 {
	n := 8*(cap(g.Packed)+cap(g.Support)) +
		4*(cap(g.EdgeOff)+cap(g.Dst)+cap(g.Dedup)+cap(g.DedupOff)+cap(g.DedupN))
	stores := []*rowStore{&g.Rows, &g.Vecs}
	if ht != nil {
		n += 8 * cap(ht.Support)
		stores = append(stores, &ht.Inputs, &ht.Rows)
	}
	for _, s := range stores {
		for _, c := range s.chunks {
			n += 8 * cap(c)
		}
	}
	return int64(n)
}

// TestGraphCacheBoundCountsCapacity fills a GraphCache from several
// designs, cold and then extended at a deeper budget, under a bound
// that forces evictions. After every publish the cache total stays
// within the bound, equals the sum of its entries' Bytes, and each
// entry's Bytes covers the capacity of all its arrays. The bound holds
// the deeper chunky graph (about 65 KiB), so that graph is kept and
// evicts the older designs.
func TestGraphCacheBoundCountsCapacity(t *testing.T) {
	const bound = 72 << 10
	var cache GraphCache
	cache.SetMaxBytes(bound)
	e := NewEngine()
	e.Graphs = &cache
	check := func(what string) {
		t.Helper()
		cache.mu.Lock()
		defer cache.mu.Unlock()
		var sum int64
		for en := cache.head; en != nil; en = en.next {
			held := en.g.Bytes()
			if en.hunt != nil {
				held += en.hunt.Bytes()
			}
			if en.bytes != held {
				t.Fatalf("%s: entry charged %d bytes, its graph and trace report %d", what, en.bytes, held)
			}
			if floor := capacityFloor(en.g, en.hunt); en.bytes < floor {
				t.Fatalf("%s: entry charged %d bytes, its arrays hold %d", what, en.bytes, floor)
			}
			sum += en.bytes
		}
		if sum != cache.total {
			t.Fatalf("%s: cache total %d, entries sum to %d", what, cache.total, sum)
		}
		if cache.total > bound {
			t.Fatalf("%s: cache holds %d bytes over its %d bound", what, cache.total, bound)
		}
	}
	designs := 0
	run := func(name string, nl *verilog.Netlist, props []string, opts ...Options) {
		designs++
		cs := compileAll(t, nl, props)
		for _, opt := range opts {
			e.VerifyBatch(context.Background(), nl, cs, opt)
			check(name)
		}
	}
	for _, tc := range batchCases {
		run(tc.name, elab(t, tc.src, tc.top), tc.props,
			Options{MaxProductStates: 60, MaxInputSamples: 4, RandomRuns: 6, RandomDepth: 16, Seed: 3, NoStatic: true},
			Options{MaxProductStates: 400, MaxInputSamples: 4, RandomRuns: 6, RandomDepth: 16, Seed: 3, NoStatic: true})
	}
	run("chunky", elab(t, chunkySrc, "chunky"), []string{"rst == 1 |=> x == 0 && y == 0"},
		chunkyOptions(100, 2), chunkyOptions(300, 2))
	if cache.Len() >= designs {
		t.Fatalf("test premise: the bound should have evicted, the cache holds all %d designs", cache.Len())
	}
}

// widen copies s into a store of width w, zero-padding or cutting each
// row.
func widen(s rowStore, w int) rowStore {
	out := newRowStore(w)
	for i := 0; i < s.n; i++ {
		r := make([]uint64, w)
		copy(r, s.row(i))
		out.push(r)
	}
	return out
}

// TestOversizedGraphEvictsNothing: an exploration larger than the
// whole memory bound is not kept and evicts nothing. It used to evict
// every other graph and memoized verdict before evicting itself.
func TestOversizedGraphEvictsNothing(t *testing.T) {
	nl := elab(t, chunkySrc, "chunky")
	var cache GraphCache
	e := NewEngine()
	e.Graphs = &cache
	e.VerifyAll(context.Background(), nl, memoTexts, Options{})
	memo := verdictEntries(t, &cache)
	if cache.Len() == 0 || len(memo) == 0 {
		t.Fatalf("test premise: %d graphs and %d verdicts cached", cache.Len(), len(memo))
	}
	cache.SetMaxBytes(cache.Bytes())
	n, held := cache.Len(), cache.Bytes()
	big := &Graph{Packed: make([]uint64, 0, held/8+1)}
	cache.insert(graphKey{nl: nl, seed: 99}, big, nil)
	if cache.Len() != n || cache.Bytes() != held {
		t.Fatalf("after an oversized insert: %d graphs in %d bytes, want %d in %d", cache.Len(), cache.Bytes(), n, held)
	}
	for _, en := range memo {
		if _, ok := cache.lookupVerdict(en.vkey); !ok {
			t.Errorf("memoized verdict %q lost to the oversized insert", en.vkey.src)
		}
	}
}

// TestMisfitGraphBlobIsAMiss: a graph blob that decodes cleanly but
// does not fit the design (a forged or corrupted blob behind a valid
// checksum) must be a cache miss, never a panic or a wrong verdict. Each
// case changes one field of a real blob and puts it back under its own
// disk key; the next batch must return the store-free verdicts and
// overwrite the blob with the rebuilt exploration.
func TestMisfitGraphBlobIsAMiss(t *testing.T) {
	both := []string{"rst == 1 |=> x == 0 && y == 0"}
	// A property on x alone explores x's cone: the cone drops y.
	xOnly := []string{"rst == 1 |=> x == 0"}
	for _, tc := range []struct {
		name  string
		props []string
		forge func(g *Graph, ht *HuntTrace, nl *verilog.Netlist)
	}{
		{"support-past-nets", both, func(g *Graph, ht *HuntTrace, _ *verilog.Netlist) {
			g.Support[len(g.Support)-1] = 1 << 20
			ht.Support = slices.Clone(g.Support)
		}},
		{"pack-words-zero", both, func(g *Graph, _ *HuntTrace, _ *verilog.Netlist) {
			g.PackWords, g.Packed = 0, nil
		}},
		{"num-inputs", both, func(g *Graph, _ *HuntTrace, _ *verilog.Netlist) {
			g.NumInputs++
			g.Vecs = widen(g.Vecs, g.NumInputs)
		}},
		{"edges-per-node", both, func(g *Graph, _ *HuntTrace, _ *verilog.Netlist) {
			// One more edge per node, and one more edge at the end so
			// the last node's widened range stays inside the arrays.
			g.EdgesPerNode++
			g.Dst = append(g.Dst, 0)
			g.Vecs.push(make([]uint64, g.NumInputs))
		}},
		{"enumerate", both, func(g *Graph, _ *HuntTrace, _ *verilog.Netlist) {
			g.Enumerate = true
			g.Vecs = newRowStore(g.NumInputs)
		}},
		{"hunt-support", both, func(_ *Graph, ht *HuntTrace, _ *verilog.Netlist) {
			ht.Support = ht.Support[:len(ht.Support)-1]
			ht.Rows = widen(ht.Rows, len(ht.Support))
		}},
		{"hunt-num-inputs", both, func(_ *Graph, ht *HuntTrace, _ *verilog.Netlist) {
			ht.NumInputs++
			ht.Inputs = widen(ht.Inputs, ht.NumInputs)
		}},
		{"support-outside-cone", xOnly, func(g *Graph, ht *HuntTrace, nl *verilog.Netlist) {
			x, y := nl.NetIndex("x"), nl.NetIndex("y")
			for i, idx := range g.Support {
				if idx == x {
					g.Support[i] = y
				}
			}
			slices.Sort(g.Support)
			ht.Support = slices.Clone(g.Support)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := elab(t, chunkySrc, "chunky")
			cs := compileAll(t, nl, tc.props)
			opt := chunkyOptions(60, 4)
			want := NewEngine().VerifyBatch(context.Background(), nl, cs, opt)

			store, err := astore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cold := &GraphCache{}
			cold.SetDisk(store)
			e := NewEngine()
			e.Graphs = cold
			e.VerifyBatch(context.Background(), nl, cs, opt)
			if cold.Len() != 1 {
				t.Fatalf("test premise: one exploration, the cache holds %d", cold.Len())
			}
			if tc.name == "support-outside-cone" && cold.head.key.nl == nl {
				t.Fatal("test premise: the x-only batch must explore a cone")
			}
			key := cold.head.key.diskKey()
			orig, ok := store.Get(astore.KindGraph, key)
			if !ok {
				t.Fatal("cold run wrote no blob")
			}
			g, ht, err := DecodeGraph(orig)
			if err != nil || ht == nil {
				t.Fatalf("test premise: a blob with a hunt trace (err %v)", err)
			}
			tc.forge(g, ht, nl)
			forged := EncodeGraph(g, ht)
			if _, _, err := DecodeGraph(forged); err != nil {
				t.Fatalf("test premise: the forged blob must decode: %v", err)
			}
			if err := store.Put(astore.KindGraph, key, forged); err != nil {
				t.Fatal(err)
			}

			warm := &GraphCache{}
			warm.SetDisk(store)
			e = NewEngine()
			e.Graphs = warm
			got := e.VerifyBatch(context.Background(), nl, cs, opt)
			for i := range want {
				if d := diffResult(got[i], want[i]); d != "" {
					t.Errorf("%q over the forged blob differs from a store-free run: %s", tc.props[i], d)
				}
			}
			if blob, _ := store.Get(astore.KindGraph, key); !bytes.Equal(blob, orig) {
				t.Error("the rebuild did not overwrite the misfit blob")
			}
		})
	}
}

// TestConcurrentExtensionSharesTailChunks: four engines, each on its
// own goroutine, extend one cached exploration at once. A starved batch
// first publishes a partly explored graph whose row stores end in a
// partly filled chunk, and a hunt trace cut short by early
// counterexamples; then every engine clones that entry and extends it
// at a deeper budget, so all four copy the same tail chunks. Each must
// return exactly what a cache-less engine returns, and the race
// detector must see no write to the shared entry.
func TestConcurrentExtensionSharesTailChunks(t *testing.T) {
	nl := elab(t, chunkySrc, "chunky")
	starved := chunkyOptions(300, 8)
	starved.FullDesign = true
	// The deep search runs long enough (tens of milliseconds) that every
	// engine has looked up the starved entry before the first publishes.
	deep := starved
	deep.MaxProductStates = 20000
	var cache GraphCache
	e := NewEngine()
	e.Graphs = &cache
	// x and y pass 100 a dozen cycles into the hunt's first run.
	e.VerifyBatch(context.Background(), nl,
		compileAll(t, nl, []string{"rst == 0 |-> x < 100", "rst == 0 |-> y < 100"}), starved)
	if cache.Len() != 1 {
		t.Fatalf("test premise: one exploration, the cache holds %d", cache.Len())
	}
	g, ht := cache.head.g, cache.head.hunt
	partial := func(s *rowStore) bool {
		last := s.chunks[len(s.chunks)-1]
		return len(s.chunks) >= 2 && len(last) < cap(last)
	}
	if g.Expanded >= g.Nodes || !partial(&g.Rows) || !partial(&g.Vecs) {
		t.Fatalf("test premise: a partly explored graph ending in partly filled chunks (%d of %d expanded, %d row and %d vec chunks)",
			g.Expanded, g.Nodes, len(g.Rows.chunks), len(g.Vecs.chunks))
	}
	if ht == nil || ht.RunsDone == 0 || ht.RunsDone >= ht.Runs {
		t.Fatal("test premise: a hunt trace cut short")
	}

	props := []string{"rst == 1 |=> x == 0 && y == 0", "rst == 0 |-> x < 100"}
	cs := compileAll(t, nl, props)
	want := NewEngine().VerifyBatch(context.Background(), nl, cs, deep)
	got := make([][]Result, 4)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine()
			e.Graphs = &cache
			<-start
			got[i] = e.VerifyBatch(context.Background(), nl, cs, deep)
		}()
	}
	close(start)
	wg.Wait()
	for i, res := range got {
		for j := range want {
			if d := diffResult(res[j], want[j]); d != "" {
				t.Errorf("engine %d, %q: differs from a cache-less engine: %s", i, props[j], d)
			}
		}
	}
}
