package fpv

import (
	"context"
	"fmt"

	"assertionbench/internal/verilog"
)

// EncodeCachedGraphs encodes every exploration c holds, most recently
// used first. The decoder fuzz target in the external test package
// seeds from real corpus graphs through it.
func EncodeCachedGraphs(c *GraphCache) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]byte
	for e := c.head; e != nil; e = e.next {
		if e.g != nil {
			out = append(out, EncodeGraph(e.g, e.hunt))
		}
	}
	return out
}

// newestGraph returns the most recently used exploration c holds, past
// any memoized verdicts.
func (c *GraphCache) newestGraph() (*Graph, *HuntTrace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.head; e != nil; e = e.next {
		if e.g != nil {
			return e.g, e.hunt
		}
	}
	return nil, nil
}

// chunkySrc is a design whose bounded-mode graphs outgrow one row chunk
// within a small search budget: two 8-bit accumulators reach 65536
// states, and three data inputs keep a node's sampled edges apart. The
// accumulators sit in separate processes, so a property on one explores
// its cone.
const chunkySrc = `
module chunky(clk, rst, a, b, x, y);
input clk, rst;
input [3:0] a, b;
output [7:0] x, y;
reg [7:0] x, y;
always @(posedge clk or posedge rst)
  if (rst) x <= 8'b0;
  else x <= x + a;
always @(posedge clk or posedge rst)
  if (rst) y <= 8'b0;
  else y <= y + b;
endmodule
`

// chunkyOptions is a bounded budget for chunkySrc: states caps the
// product search, and the hunt has runs runs of 64 cycles.
func chunkyOptions(states, runs int) Options {
	return Options{MaxProductStates: states, MaxInputBits: 2, MaxInputSamples: 6,
		RandomRuns: runs, RandomDepth: 64, Seed: 5, NoStatic: true}
}

// buildChunkyGraph verifies a property of chunkySrc that holds, so the
// search spends its whole budget and the hunt runs every run, and
// returns the exploration it cached.
func buildChunkyGraph(states, runs int) (*Graph, *HuntTrace, error) {
	nl, err := verilog.ElaborateSource(chunkySrc, "chunky")
	if err != nil {
		return nil, nil, err
	}
	var cache GraphCache
	e := NewEngine()
	e.Graphs = &cache
	e.VerifyAll(context.Background(), nl, []string{"rst == 1 |=> x == 0 && y == 0"}, chunkyOptions(states, runs))
	g, ht := cache.newestGraph()
	if g == nil {
		return nil, nil, fmt.Errorf("no chunky graph cached")
	}
	return g, ht, nil
}

// Properties of chunkySrc for the widen path. narrowProp reads rst, x
// and y. The wide properties read the data input a as well, so a batch
// of them misses a graph built for narrowProp, and each is refuted by an
// edge that a class formed over the narrow union hides behind its
// representative: from any state, every edge with rst=1 reaches the
// reset state with the same narrow row, and the first of them in edge
// order has a=0 under the enumeration and a=15 (the all-ones corner)
// under sampling.
const narrowProp = "rst == 1 |=> x == 0 && y == 0"

var wideProps = []string{"rst == 1 && a == 5 |=> x == 5", "rst == 1 && a != 15 |=> x == 1"}

// widenChunkyGraph verifies narrowProp over the full chunky design and
// then wideProps on the same cache, returning the graph each batch left
// there. The second batch widens the first's graph, and its searches
// stop at counter-examples near the power-on state, so the widened graph
// keeps expanded nodes without rows.
func widenChunkyGraph(cache *GraphCache, opt Options) (stale, widened *Graph, err error) {
	nl, err := verilog.ElaborateSource(chunkySrc, "chunky")
	if err != nil {
		return nil, nil, err
	}
	opt.FullDesign = true
	e := NewEngine()
	e.Graphs = cache
	e.VerifyAll(context.Background(), nl, []string{narrowProp}, opt)
	stale, _ = cache.newestGraph()
	e.VerifyAll(context.Background(), nl, wideProps, opt)
	widened, _ = cache.newestGraph()
	if stale == nil || widened == stale {
		return nil, nil, fmt.Errorf("the wide batch did not widen the narrow graph")
	}
	return stale, widened, nil
}

// rowless counts the expanded nodes of g that have no rows.
func rowless(g *Graph) int {
	n := 0
	for i, off := range g.EdgeOff {
		if off >= 0 && g.DedupOff[i] < 0 {
			n++
		}
	}
	return n
}

// EncodeWidenedGraph encodes a widened chunkySrc exploration that holds
// expanded nodes without rows.
func EncodeWidenedGraph() ([]byte, error) {
	var cache GraphCache
	if _, _, err := widenChunkyGraph(&cache, chunkyOptions(150, 1)); err != nil {
		return nil, err
	}
	g, ht := cache.newestGraph()
	if rowless(g) == 0 {
		return nil, fmt.Errorf("widened graph re-rowed every expanded node")
	}
	return EncodeGraph(g, ht), nil
}

// EncodeChunkyGraph encodes a chunkySrc exploration whose support rows
// and input vectors span more than one row chunk.
func EncodeChunkyGraph() ([]byte, error) {
	g, ht, err := buildChunkyGraph(150, 1)
	if err != nil {
		return nil, err
	}
	if len(g.Rows.chunks) < 2 || len(g.Vecs.chunks) < 2 {
		return nil, fmt.Errorf("chunky graph fits one chunk: rows %d, vecs %d", len(g.Rows.chunks), len(g.Vecs.chunks))
	}
	return EncodeGraph(g, ht), nil
}
