package eval

import (
	"bytes"
	"context"
	"testing"

	"assertionbench/internal/astore"
	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
)

// FuzzDecodeRecord feeds the record decoder arbitrary bytes. Records are
// read back from disk, so whatever the payload, decodeRecord must answer
// and never panic, and it may accept only a decided outcome (no Unknown
// or out-of-range verdict, not truncated, not errored) carrying the index
// and design name its key asked for. The seeds are a real record,
// journaled by a one-design run, and corruptions of it.
func FuzzDecodeRecord(f *testing.F) {
	e, err := NewExperiment(context.Background(), ExperimentOptions{MaxDesigns: 1})
	if err != nil {
		f.Fatal(err)
	}
	d := e.Corpus[0]
	gen := NewModelGenerator(llm.GPT4o())
	opt := RunOptions{Shots: 1, UseCorrector: true, Workers: 1, CacheDir: f.TempDir()}
	f.Cleanup(func() { bench.SetCacheDir("") })
	if _, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt); err != nil {
		f.Fatal(err)
	}
	j := newJournal(bench.DiskStore(), gen, e.ICL[:1], opt.withDefaults())
	blob, ok := bench.DiskStore().Get(astore.KindRun, j.key(d, 0))
	if !ok {
		f.Fatal("the run journaled no record for its design")
	}
	if _, ok := decodeRecord(blob, 0, d.Name); !ok {
		f.Fatal("a journaled record does not decode")
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte("null"))
	f.Add(bytes.Replace(blob, []byte(`"Index":0`), []byte(`"Index":1`), 1))
	f.Add(bytes.Replace(blob, []byte(`"Truncated":false`), []byte(`"Truncated":true`), 1))
	f.Add(bytes.Replace(blob, []byte(`"Verdicts":[`), []byte(`"Verdicts":[3,`), 1))
	f.Add(bytes.Replace(blob, []byte(`"Verdicts":[`), []byte(`"Verdicts":[-1,`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		o, ok := decodeRecord(data, 0, d.Name)
		if !ok {
			return
		}
		if o.Index != 0 || o.Design != d.Name {
			t.Fatalf("accepted a record of design %q at index %d", o.Design, o.Index)
		}
		if o.Truncated || o.Errored {
			t.Fatalf("accepted an undecided record (truncated %t, errored %t)", o.Truncated, o.Errored)
		}
		for _, v := range o.Verdicts {
			if v < VerdictPass || v > VerdictError {
				t.Fatalf("accepted verdict %d", v)
			}
		}
	})
}
