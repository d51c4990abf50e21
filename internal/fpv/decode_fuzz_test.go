package fpv_test

import (
	"context"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
)

// FuzzDecodeGraph feeds DecodeGraph arbitrary bytes. Graph blobs are
// read back from the artifact store on disk, so whatever the bytes,
// DecodeGraph must return an error or a graph and never panic. The seeds
// are the encoded reachability graphs of every tenth corpus design, and
// one graph whose rows span several row chunks. A
// small search budget keeps the seeds a few KiB, so the fuzzer mutates
// and minimizes them quickly, while wide designs still yield bounded
// graphs with hunt traces.
func FuzzDecodeGraph(f *testing.F) {
	var cache fpv.GraphCache
	eng := fpv.NewEngine()
	eng.Graphs = &cache
	opt := fpv.Options{MaxProductStates: 64, MaxInputBits: 4, MaxInputSamples: 4,
		RandomRuns: 4, RandomDepth: 8, NoStatic: true}
	corpus := bench.TestCorpus()
	for i := 0; i < len(corpus); i += 10 {
		nl, err := bench.Elaborate(corpus[i])
		if err != nil {
			f.Fatal(err)
		}
		out := nl.Nets[nl.Outputs[0]].Name
		eng.VerifyAll(context.Background(), nl, []string{"1 |-> " + out + " == " + out}, opt)
	}
	blobs := fpv.EncodeCachedGraphs(&cache)
	if len(blobs) == 0 {
		f.Fatal("no corpus graph to seed from")
	}
	for _, b := range blobs {
		f.Add(b)
	}
	// One graph whose rows span more than one row chunk.
	chunky, err := fpv.EncodeChunkyGraph()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chunky)
	f.Fuzz(func(t *testing.T, data []byte) {
		fpv.DecodeGraph(data) // an error is a valid answer; a panic fails
	})
}
