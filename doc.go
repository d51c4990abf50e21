// Package assertionbench is a from-scratch Go reproduction of "Are LLMs
// Ready for Practical Adoption for Assertion Generation?" (Pulavarthi,
// Nandal, Dan, Pal — DATE 2025): the AssertionBench benchmark, the
// evaluation pipeline for COTS LLMs, and the fine-tuned AssertionLLM —
// including every substrate the paper depends on (Verilog front end,
// cycle-accurate simulator, SVA subset, formal property verification
// engine, GOLDMINE/HARM-style assertion miners, and a simulated LLM
// substrate with calibrated per-model error channels).
//
// This root package is the supported public API. Everything under
// internal/ is an implementation detail with no stability guarantee; the
// façade re-exports the system behind three deliberate contracts:
//
//   - Pluggable sources and sinks. A [Generator] is any assertion source
//     — a simulated COTS model ([NewModelGenerator]), a fine-tuned
//     AssertionLLM ([Benchmark.AssertionLLM]), a classical miner
//     ([NewGoldMineGenerator], [NewHarmGenerator]), or a caller's own
//     implementation — and a [Verifier] is any formal stage. Every source
//     runs through the identical pipeline (corrector, FPV, metrics,
//     worker pool), which is what makes miner-vs-LLM comparisons
//     apples-to-apples.
//
//   - Context everywhere. Each API that does real work takes a
//     [context.Context], plumbed through the worker pool, the generation
//     loops, and the FPV search loops, so cancellation and deadlines take
//     effect mid-search, not between corpus entries.
//
//   - Streaming and batch, one implementation. [Runner.Stream] yields
//     per-design outcomes in corpus order the moment each is ready, as an
//     iter.Seq2; [Runner.Run] is a thin collector over the same stream.
//     At equal seed the stream is identical for any worker count, and
//     shard streams concatenate to the unsharded run — determinism
//     guarantees are test-enforced across both modes.
//
// Verification of a design's candidate list is batched: all its
// assertions share one reachability exploration of the design's state
// space (cached across runs under a memory bound), which is what keeps
// the verdict matrix FPV-bound pass fast. The engine runs one
// configuration. Its reference paths are internal and exist only for
// the differential self-check ([SelfCheck]), which compares each with
// the production path: the interpreter backend (oracle 4), full-design
// search (oracle 6) and search without the static pass (oracle 8). A single assertion is verified as a batch of
// one through the same search, and oracle 5 checks that a batch of N
// matches N unshared batches of one.
//
// A minimal evaluation:
//
//	b, _ := assertionbench.Load(ctx, assertionbench.Options{})
//	gen := assertionbench.NewModelGenerator(assertionbench.GPT4o())
//	r := assertionbench.NewRunner(gen, b, assertionbench.RunOptions{Shots: 5})
//	for outcome, err := range r.Stream(ctx) {
//		...
//	}
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and substitution arguments, and EXPERIMENTS.md for
// paper-vs-measured notes on every table and figure. The root-level
// benchmarks (bench_test.go) regenerate each of them:
//
//	go test -bench=BenchmarkFigure6 -benchmem .
package assertionbench
