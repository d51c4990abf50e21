package fpv

import (
	"context"
	"encoding/binary"
	"reflect"
	"testing"

	"assertionbench/internal/astore"
	"assertionbench/internal/sva"
)

// populateGraph runs one batch so the cache holds a real exploration,
// then returns the single cached entry.
func populateGraph(t *testing.T, cache *GraphCache, opt Options) (*Graph, *HuntTrace) {
	t.Helper()
	nl := elab(t, counterSrc, "counter")
	var cs []*sva.Compiled
	for _, p := range batchCases[0].props {
		a, err := sva.Parse(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sva.Compile(a, nl)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	e := NewEngine()
	e.Graphs = cache
	e.VerifyBatch(context.Background(), nl, cs, opt)
	cache.mu.Lock()
	defer cache.mu.Unlock()
	for _, entry := range cache.m { //ab:allow maprange (order-insensitive: the test uses any one entry)
		return entry.g, entry.hunt
	}
	t.Fatal("no graph cached")
	return nil, nil
}

func TestGraphCodecRoundTrip(t *testing.T) {
	for _, mode := range []struct {
		name string
		opt  Options
	}{
		// A chunkySrc graph whose Rows and Vecs span several row chunks,
		// with a two-chunk hunt trace: the codec writes chunks back to
		// back and reads them into exact-size chunks.
		{"multi-chunk", chunkyOptions(600, 8)},
		// Exhaustive-friendly budget: enumerate-mode graph, no hunt.
		{"enumerate", Options{NoStatic: true}},
		// Starved budget: bounded sampled graph plus a hunt trace.
		{"bounded", Options{MaxProductStates: 60, MaxInputBits: 2, MaxInputSamples: 4,
			RandomRuns: 6, RandomDepth: 16, Seed: 3, NoStatic: true}},
		// Tiny state budget over a tiny input alphabet: the exploration
		// stops with frontier nodes unexpanded (EdgeOff/DedupOff -1) and
		// the six sampled edges collapse to fewer dedup classes, so Rows
		// is shorter than edges*|Support|. Both shapes appear throughout
		// real corpus graphs and a validator that assumes fully-expanded,
		// collapse-free graphs would reject them (it once did, turning
		// half the disk tier into silent rebuild-and-rewrite misses).
		{"starved", Options{MaxProductStates: 3, MaxInputBits: 1, MaxInputSamples: 4,
			RandomRuns: 2, RandomDepth: 4, Seed: 1, NoStatic: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var cache GraphCache
			var g *Graph
			var ht *HuntTrace
			if mode.name == "multi-chunk" {
				var err error
				if g, ht, err = buildChunkyGraph(mode.opt.MaxProductStates, mode.opt.RandomRuns); err != nil {
					t.Fatal(err)
				}
				if len(g.Rows.chunks) < 3 || len(g.Vecs.chunks) < 3 || ht == nil || len(ht.Inputs.chunks) < 2 {
					t.Fatalf("fixture lost its chunks: rows %d, vecs %d", len(g.Rows.chunks), len(g.Vecs.chunks))
				}
			} else {
				g, ht = populateGraph(t, &cache, mode.opt)
			}
			if mode.name == "starved" {
				// The fixture must actually exercise the two shapes.
				if g.Expanded >= g.Nodes {
					t.Fatalf("starved graph fully expanded (%d nodes): fixture lost its unexpanded frontier", g.Nodes)
				}
				if len(g.Dedup) >= len(g.Dst) {
					t.Fatalf("starved graph has no dedup collapse (%d classes / %d edges)", len(g.Dedup), len(g.Dst))
				}
			}
			blob := EncodeGraph(g, ht)
			g2, ht2, err := DecodeGraph(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g, g2) {
				t.Fatalf("decoded graph differs:\n got %+v\nwant %+v", g2, g)
			}
			if !reflect.DeepEqual(ht, ht2) {
				t.Fatalf("decoded hunt trace differs:\n got %+v\nwant %+v", ht2, ht)
			}
			if string(blob) != string(EncodeGraph(g2, ht2)) {
				t.Fatal("encoding is not deterministic across a decode round-trip")
			}
		})
	}
}

func TestDecodeGraphRejectsGarbage(t *testing.T) {
	var cache GraphCache
	g, ht := populateGraph(t, &cache, Options{NoStatic: true})
	blob := EncodeGraph(g, ht)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"misaligned", blob[:len(blob)-5]},
		{"truncated", blob[:8*(len(blob)/16)]},
		{"wrong-version", append([]byte{0xfe, 0, 0, 0, 0, 0, 0, 0}, blob[8:]...)},
		{"trailing", append(append([]byte(nil), blob...), make([]byte, 8)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeGraph(tc.data); err == nil {
				t.Fatal("decode accepted a malformed payload")
			}
		})
	}
}

// TestDecodeGraphRejectsForgedLength: a slice length of 1<<62 overflows
// a multiplied bound check. The decoder must still return an error, not
// panic in make: its bytes come from disk.
func TestDecodeGraphRejectsForgedLength(t *testing.T) {
	// The version word, six zeroed header words, then a forged Support
	// length.
	var data []byte
	for _, w := range []uint64{graphioVersion, 0, 0, 0, 0, 0, 0, 1 << 62} {
		data = binary.LittleEndian.AppendUint64(data, w)
	}
	if _, _, err := DecodeGraph(data); err == nil {
		t.Fatal("decode accepted a forged slice length")
	}
}

// TestGraphCacheDiskTier is the cross-process contract: a cache in a
// "second process" (fresh memory cache, fresh netlist pointer from
// re-elaboration) must serve the exploration a first cache wrote to the
// shared directory, with field-identical verdicts.
func TestGraphCacheDiskTier(t *testing.T) {
	store, err := astore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(cache *GraphCache) []Result {
		nl := elab(t, counterSrc, "counter")
		var cs []*sva.Compiled
		for _, p := range batchCases[0].props {
			a, err := sva.Parse(p)
			if err != nil {
				t.Fatal(err)
			}
			c, err := sva.Compile(a, nl)
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, c)
		}
		e := NewEngine()
		e.Graphs = cache
		return e.VerifyBatch(context.Background(), nl, cs, Options{NoStatic: true})
	}
	cold := &GraphCache{}
	cold.SetDisk(store)
	want := run(cold)
	if store.Hits() != 0 {
		t.Fatalf("cold run hit the empty store %d times", store.Hits())
	}
	warm := &GraphCache{}
	warm.SetDisk(store)
	got := run(warm)
	if store.Hits() == 0 {
		t.Fatal("warm run never read the populated store")
	}
	for i := range want {
		if d := diffResult(got[i], want[i]); d != "" {
			t.Errorf("disk-loaded verdict %d differs: %s", i, d)
		}
	}
	// The loaded entry is adopted into the memory tier.
	if warm.Len() == 0 {
		t.Fatal("disk hit not adopted into the memory cache")
	}
}

// TestDecodeGraphHugeWidthWithoutRows: a hunt trace with no cycles may
// claim any input width, and sizing its empty row store must not
// overflow (a multiplied bound once looped forever on widths near 2^62).
func TestDecodeGraphHugeWidthWithoutRows(t *testing.T) {
	var cache GraphCache
	g, _ := populateGraph(t, &cache, Options{NoStatic: true})
	h := &HuntTrace{Runs: 1, Depth: 1, NumInputs: 1 << 62, Support: g.Support,
		Inputs: newRowStore(0), Rows: newRowStore(len(g.Support))}
	if _, _, err := DecodeGraph(EncodeGraph(g, h)); err != nil {
		t.Fatalf("decode rejected an empty hunt trace: %v", err)
	}
}

// TestDecodeGraphRejectsInconsistentDedup: the product search reads a
// node's representative edges through DedupOff/DedupN, so a blob whose
// representatives are not the node's own edges, or whose expanded node
// has no representative list, must fail decoding rather than index out
// of range in a later search.
func TestDecodeGraphRejectsInconsistentDedup(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(g *Graph)
	}{
		{"representative-past-edges", func(g *Graph) { g.Dedup[0] = int32(len(g.Dst)) }},
		{"representative-of-another-node", func(g *Graph) { g.Dedup[0] = g.EdgeOff[0] + int32(g.EdgesPerNode) }},
		{"expanded-without-span", func(g *Graph) { g.DedupOff[0], g.DedupN[0] = -1, 0 }},
		{"span-on-unexpanded-node", func(g *Graph) {
			for i, off := range g.EdgeOff {
				if off == -1 {
					g.DedupOff[i], g.DedupN[i] = 0, 1
					return
				}
			}
		}},
		{"overlapping-spans", func(g *Graph) { g.DedupN[0] = int32(len(g.Dedup)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ht, err := buildChunkyGraph(60, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := DecodeGraph(EncodeGraph(g, ht)); err != nil {
				t.Fatalf("test premise: the unforged graph decodes: %v", err)
			}
			// Forge a decoded copy: the cached graph's arrays stay intact.
			g, ht, _ = DecodeGraph(EncodeGraph(g, ht))
			tc.forge(g)
			if _, _, err := DecodeGraph(EncodeGraph(g, ht)); err == nil {
				t.Fatal("decode accepted an inconsistent representative list")
			}
		})
	}
}
