// Command fuzzcheck runs the differential verification harness: seeded
// random well-formed designs and SVA properties cross-checked through
// nine oracles (print/parse round-trip, sim-vs-monitor-vs-FPV
// agreement with counter-example replay, sequential/parallel/sharded
// stream determinism under out-of-order dispatch,
// compiled-vs-interpreted backend identity,
// batched-vs-batches-of-one FPV identity (and batch-order
// independence on a warm cache), cone-reduced-vs-full-design
// semantic agreement, static-pass-vs-pure-search semantic agreement,
// disk-served-vs-store-free FPV identity through the persistent
// artifact store, and fault-tolerance convergence — injected faults
// absorbed by retries, surfaced by the continue policy, and healed by
// a manifest resume — against the fault-free stream). A clean
// exit means every generated scenario agreed, every oracle actually
// ran, and every speed layer saved work: batching, the cone and the
// store each saved graph expansions against their oracle's reference,
// and the static pass discharged a property. An idle oracle or layer is
// reported and fails the run (SelfCheckReport.Idle), so a refactor
// cannot silently disconnect a cross-check or turn a layer into pure
// overhead; disagreements are shrunk, dumped as .v/.sva reproduction
// pairs, and fail the run. Ctrl-C cancels gracefully.
//
// Usage:
//
//	fuzzcheck -n 200 -seed 1
//	fuzzcheck -n 50 -seed 7 -props 5 -dump ./fuzz-crashes
//
// Exit status is 0 when every oracle ran and agreed and every layer
// saved work, 1 on disagreement, an idle oracle or layer, or
// interruption, 2 on usage or harness errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"assertionbench"
	"assertionbench/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fuzzcheck: ")
	n := flag.Int("n", 200, "number of generated design scenarios")
	seed := flag.Int64("seed", 1, "generation seed (a run is a pure function of -n/-seed/-props)")
	props := flag.Int("props", 3, "random properties per design")
	dump := flag.String("dump", "", "directory for .v/.sva reproduction pairs on disagreement")
	short := flag.Bool("short", false, "trimmed per-design budgets (CI smoke mode)")
	flag.Parse()
	if *n <= 0 {
		cliutil.Fatalf("-n %d: scenario count must be positive", *n)
	}
	if *props <= 0 {
		cliutil.Fatalf("-props %d: property count must be positive", *props)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report, err := assertionbench.SelfCheck(ctx, assertionbench.SelfCheckOptions{
		Scenarios:      *n,
		PropsPerDesign: *props,
		Seed:           *seed,
		DumpDir:        *dump,
		Short:          *short,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatalf("interrupted after %d of %d scenarios", report.Scenarios, *n)
		}
		cliutil.Fatal(err)
	}
	fmt.Printf("scenarios:        %d (seed %d)\n", report.Scenarios, *seed)
	fmt.Printf("properties:       %d (%d exhaustive, %d counter-examples replayed)\n",
		report.Properties, report.Exhaustive, report.CEXs)
	fmt.Print("verdicts:        ")
	for _, k := range []string{"proven", "vacuous", "bounded_pass", "cex"} {
		if n := report.Verdicts[k]; n > 0 {
			fmt.Printf(" %s=%d", k, n)
		}
	}
	fmt.Println()
	fmt.Printf("backend checks:   %d (compiled vs interpreted)\n", report.BackendChecks)
	fmt.Printf("batch checks:     %d (shared-graph batched vs batches of one, and vs reverse order; %d graph expansions saved)\n",
		report.BatchChecks, report.BatchSaved)
	fmt.Printf("cone checks:      %d (cone-reduced vs full-design; %d graph expansions saved)\n", report.ConeChecks, report.ConeSaved)
	fmt.Printf("static checks:    %d (static pass vs pure search, %d discharged without search)\n",
		report.StaticChecks, report.StaticDischarged)
	fmt.Printf("store checks:     %d (disk-served vs store-free, %d blobs served from disk; %d graph expansions saved)\n",
		report.StoreChecks, report.StoreLoads, report.StoreSaved)
	fmt.Printf("determinism runs: %d\n", report.DeterminismRuns)
	fmt.Printf("fault checks:     %d (injected faults: retry absorption, continue policy, manifest resume)\n", report.FaultChecks)
	idle := report.Idle()
	for _, s := range idle {
		fmt.Println(s)
	}
	if report.OK() {
		if len(idle) > 0 {
			os.Exit(1)
		}
		fmt.Println("all oracles agree")
		return
	}
	fmt.Printf("\n%d DISAGREEMENT(S):\n", len(report.Disagreements))
	for _, d := range report.Disagreements {
		fmt.Println("  " + d)
	}
	os.Exit(1)
}
