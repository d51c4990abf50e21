// Benchmarks regenerating every table and figure of the paper, the
// ablations motivated by its observations, and throughput benches for the
// substrates. Run:
//
//	go test -bench=. -benchmem .
//
// Fraction metrics are attached via b.ReportMetric (pass/op, cex/op,
// error/op are the Pass/CEX/Error fractions of the corresponding run).
package assertionbench_test

import (
	"context"
	"sync"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/eval"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/sim"
	"assertionbench/internal/verilog"
)

// The experiment is shared across benchmarks: building it mines the ICL
// examples once, and the LLM design-context cache warms up progressively.
var (
	expOnce sync.Once
	exp     *eval.Experiment
	expErr  error
)

func experiment(b *testing.B) *eval.Experiment {
	b.Helper()
	expOnce.Do(func() {
		exp, expErr = eval.NewExperiment(context.Background(), eval.ExperimentOptions{})
	})
	if expErr != nil {
		b.Fatal(expErr)
	}
	return exp
}

func reportRun(b *testing.B, r eval.RunResult) {
	b.ReportMetric(r.Metrics.Pass(), "pass/op")
	b.ReportMetric(r.Metrics.CEX(), "cex/op")
	b.ReportMetric(r.Metrics.Error(), "error/op")
}

// --- paper tables and figures ---

// BenchmarkTableI regenerates Table I (representative design details).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corpus := bench.TestCorpus()
		if s := eval.TableI(corpus); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3 (LoC per test design).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corpus := bench.TestCorpus()
		if s := eval.Figure3(corpus); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// benchCOTS runs one (model, k) cell of the Fig. 6 grid.
func benchCOTS(b *testing.B, p llm.Profile, shots int) {
	e := experiment(b)
	var last eval.RunResult
	for i := 0; i < b.N; i++ {
		r, err := e.RunCOTS(context.Background(), p, shots)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportRun(b, last)
}

// BenchmarkFigure6 regenerates Figure 6: each sub-benchmark is one
// (model, k-shot) bar group of Fig. 6a-d.
func BenchmarkFigure6(b *testing.B) {
	for _, p := range llm.COTSProfiles() {
		p := p
		for _, k := range []int{1, 5} {
			k := k
			b.Run(p.Name+"/"+shotName(k), func(b *testing.B) { benchCOTS(b, p, k) })
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7 (cross-model comparison at fixed
// k): the full COTS grid in one measurement.
func BenchmarkFigure7(b *testing.B) {
	e := experiment(b)
	for i := 0; i < b.N; i++ {
		runs, err := e.RunAllCOTS(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if s := eval.Figure7(runs); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9: AssertionLLM (fine-tuned
// CodeLLaMa 2 and LLaMa3-70B) on the held-out quarter, per k.
func BenchmarkFigure9(b *testing.B) {
	bases := []llm.Profile{llm.CodeLlama2(), llm.Llama3()}
	for _, p := range bases {
		p := p
		for _, k := range []int{1, 5} {
			k := k
			b.Run("AssertionLLM_"+p.Name+"/"+shotName(k), func(b *testing.B) {
				e := experiment(b)
				var last eval.RunResult
				for i := 0; i < b.N; i++ {
					r, _, err := e.FinetunedRun(context.Background(), p, k)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				reportRun(b, last)
			})
		}
	}
}

// BenchmarkObservations regenerates the Observation 1-6 statistics from a
// full COTS + fine-tuned pass.
func BenchmarkObservations(b *testing.B) {
	e := experiment(b)
	for i := 0; i < b.N; i++ {
		cots, err := e.RunAllCOTS(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		ft, err := e.RunAllFinetuned(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if s := eval.Observations(cots, ft); len(s) == 0 {
			b.Fatal("empty observations")
		}
	}
}

func shotName(k int) string {
	if k == 1 {
		return "1shot"
	}
	return "5shot"
}

// --- ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblationCorrector measures stage 3 of Fig. 4: the same model
// with and without the syntax corrector.
func BenchmarkAblationCorrector(b *testing.B) {
	e := experiment(b)
	gen := eval.NewModelGenerator(llm.GPT35())
	for _, on := range []bool{true, false} {
		on := on
		name := "corrector_on"
		if !on {
			name = "corrector_off"
		}
		b.Run(name, func(b *testing.B) {
			var last eval.RunResult
			for i := 0; i < b.N; i++ {
				r, err := eval.Run(context.Background(), gen, e.ICL, e.Corpus, eval.RunOptions{
					Shots: 1, UseCorrector: on,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkAblationGrounding removes the design-behaviour grounding
// channel (the CDFG/COI-derived pool of Observation 4) from GPT-4o.
func BenchmarkAblationGrounding(b *testing.B) {
	e := experiment(b)
	for _, grounded := range []bool{true, false} {
		grounded := grounded
		name := "with_artifacts"
		if !grounded {
			name = "without_artifacts"
		}
		b.Run(name, func(b *testing.B) {
			p := llm.GPT4o()
			if !grounded {
				p.K1.Grounding = 0
				p.K5.Grounding = 0
			}
			var last eval.RunResult
			for i := 0; i < b.N; i++ {
				r, err := e.RunCOTS(context.Background(), p, 5)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkAblationDecoding compares greedy decoding against the paper's
// temperature-1.0 / top-p 0.95 sampling.
func BenchmarkAblationDecoding(b *testing.B) {
	e := experiment(b)
	for _, greedy := range []bool{false, true} {
		greedy := greedy
		name := "sampled_t1.0"
		if greedy {
			name = "greedy"
		}
		b.Run(name, func(b *testing.B) {
			p := llm.GPT4o()
			if greedy {
				p.Temperature = 0
				p.TopP = 1
			}
			var last eval.RunResult
			for i := 0; i < b.N; i++ {
				r, err := e.RunCOTS(context.Background(), p, 5)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkAblationICLDiversity tests Observation 2: five diverse
// in-context examples vs the same example repeated five times.
func BenchmarkAblationICLDiversity(b *testing.B) {
	e := experiment(b)
	gen := eval.NewModelGenerator(llm.GPT4o())
	repeated := []llm.Example{e.ICL[0], e.ICL[0], e.ICL[0], e.ICL[0], e.ICL[0]}
	for _, diverse := range []bool{true, false} {
		diverse := diverse
		name := "diverse_ices"
		icl := e.ICL
		if !diverse {
			name = "repeated_ice"
			icl = repeated
		}
		b.Run(name, func(b *testing.B) {
			var last eval.RunResult
			for i := 0; i < b.N; i++ {
				r, err := eval.Run(context.Background(), gen, icl, e.Corpus, eval.RunOptions{
					Shots: 5, UseCorrector: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkAblationFinetuneEpochs sweeps the fine-tuning epoch count.
func BenchmarkAblationFinetuneEpochs(b *testing.B) {
	e := experiment(b)
	corpus, _, err := e.FinetuneSplit(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	for _, epochs := range []int{1, 5, 20} {
		epochs := epochs
		b.Run(shotEpochs(epochs), func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				_, report := llm.Finetune(llm.New(llm.CodeLlama2()), corpus, llm.FinetuneOptions{Epochs: epochs})
				gain = report.Gain
			}
			b.ReportMetric(gain, "gain/op")
		})
	}
}

func shotEpochs(n int) string {
	switch n {
	case 1:
		return "epochs_1"
	case 5:
		return "epochs_5"
	default:
		return "epochs_20"
	}
}

// --- evaluation runner benches ---

// BenchmarkEvalRunner compares the sequential and parallel evaluation
// paths on the same (model, k, corpus-slice) workload. Results are
// byte-identical; only wall-clock differs. The elaboration cache is warm
// for both (the shared experiment ran already), and from the second
// iteration on the graph cache's verdict memo answers every verification,
// so the measured gap is pure scheduling of generation, correction and
// memo lookups.
func BenchmarkEvalRunner(b *testing.B) {
	e := experiment(b)
	gen := eval.NewModelGenerator(llm.GPT4o())
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0}, // GOMAXPROCS workers
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			var last eval.RunResult
			for i := 0; i < b.N; i++ {
				r, err := eval.Run(context.Background(), gen, e.ICL, e.Corpus, eval.RunOptions{
					Shots: 5, UseCorrector: true, Workers: bc.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkElaboration compares cold elaboration of the full 100-design
// corpus against hits on a warm ElabCache (what every run after the first
// sees in one process).
func BenchmarkElaboration(b *testing.B) {
	corpus := bench.TestCorpus()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var c bench.ElabCache
			for _, d := range corpus {
				if _, err := c.Elaborate(d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		var c bench.ElabCache
		for _, d := range corpus {
			if _, err := c.Elaborate(d); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range corpus {
				if _, err := c.Elaborate(d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- substrate throughput benches ---

// BenchmarkParseElaborate measures front-end throughput on the largest
// corpus design.
func BenchmarkParseElaborate(b *testing.B) {
	corpus := bench.TestCorpus()
	var biggest bench.Design
	for _, d := range corpus {
		if d.LoC > biggest.LoC {
			biggest = d
		}
	}
	b.SetBytes(int64(len(biggest.Source)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verilog.ElaborateSource(biggest.Source, biggest.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorSteps measures cycle throughput on the CAN CRC, per
// execution backend.
func BenchmarkSimulatorSteps(b *testing.B) {
	nl, err := verilog.ElaborateSource(bench.TestCorpus()[23].Source, "")
	if err != nil {
		b.Fatal(err)
	}
	for _, bk := range []struct {
		name string
		mk   func(*verilog.Netlist) *sim.Simulator
	}{{"interp", sim.New}, {"compiled", sim.NewCompiled}} {
		b.Run(bk.name, func(b *testing.B) {
			s := bk.mk(nl)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// fpvBackends names the FPV execution backends the benchmarks compare:
// the reference tree-walk and the compiled production path.
var fpvBackends = []struct {
	name   string
	interp bool
}{{"interp", true}, {"compiled", false}}

// BenchmarkFPVProve measures exhaustive model checking of a true
// property, per execution backend.
func BenchmarkFPVProve(b *testing.B) {
	nl, err := verilog.ElaborateSource(bench.TrainArbiter, "arb2")
	if err != nil {
		b.Fatal(err)
	}
	for _, backend := range fpvBackends {
		b.Run(backend.name, func(b *testing.B) {
			eng := fpv.NewEngine()
			for i := 0; i < b.N; i++ {
				r := eng.VerifySource(context.Background(), nl, "rst == 1 |=> gnt_ == 0", fpv.Options{Interp: backend.interp})
				if r.Status != fpv.StatusProven {
					b.Fatalf("unexpected status %v", r.Status)
				}
			}
		})
	}
}

// BenchmarkFPVBounded measures a bounded search (sampled inputs + random
// hunt) on the widest corpus design, per execution backend.
func BenchmarkFPVBounded(b *testing.B) {
	d := bench.TestCorpus()[23]
	nl, err := verilog.ElaborateSource(d.Source, "")
	if err != nil {
		b.Fatal(err)
	}
	out := nl.Nets[nl.Outputs[0]].Name
	src := "1 |-> " + out + " == " + out + ";"
	for _, backend := range fpvBackends {
		b.Run(backend.name, func(b *testing.B) {
			eng := fpv.NewEngine()
			for i := 0; i < b.N; i++ {
				r := eng.VerifySource(context.Background(), nl, src, fpv.Options{
					MaxProductStates: 2000, MaxInputBits: 8, MaxInputSamples: 12,
					RandomRuns: 24, RandomDepth: 48, Interp: backend.interp,
				})
				if r.Status == fpv.StatusError {
					b.Fatalf("unexpected error: %v", r.Err)
				}
			}
		})
	}
}

// BenchmarkMineFinetuneCorpus measures mining the Figs. 8/9 fine-tuning
// corpus the way an experiment does: the five training designs for the
// ICL examples, then three quarters of the test corpus.
func BenchmarkMineFinetuneCorpus(b *testing.B) {
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		e, err := eval.NewExperiment(context.Background(), eval.ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		corpus, _, err := e.FinetuneSplit(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		n = 0
		for _, ex := range corpus {
			n += len(ex.Assertions)
		}
	}
	b.ReportMetric(float64(n), "assertions/op")
}

// BenchmarkGenerate measures one 5-shot generation call (prompt build +
// decode), excluding verification, the way eval pays for it: one shared
// model, cycling over the corpus designs.
func BenchmarkGenerate(b *testing.B) {
	e := experiment(b)
	model := llm.New(llm.GPT4o())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		design := e.Corpus[i%len(e.Corpus)]
		prompt := llm.BuildPrompt(e.ICL, design.Source, model.Profile.ContextWindow)
		if _, err := model.Generate(context.Background(), prompt, llm.GenOptions{Shots: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
