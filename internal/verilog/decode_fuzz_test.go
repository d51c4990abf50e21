package verilog_test

import (
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/verilog"
)

// FuzzDecodeProgram feeds DecodeProgram arbitrary bytes. Program blobs
// are read back from the artifact store on disk, so whatever the bytes,
// DecodeProgram must return an error or a program and never panic. The
// seeds are the encoded programs of every tenth corpus design.
func FuzzDecodeProgram(f *testing.F) {
	corpus := bench.TestCorpus()
	for i := 0; i < len(corpus); i += 10 {
		nl, err := bench.Elaborate(corpus[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(verilog.EncodeProgram(nl.Program()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		verilog.DecodeProgram(data) // an error is a valid answer; a panic fails
	})
}
