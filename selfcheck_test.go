package assertionbench_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"assertionbench"
)

func TestSelfCheckFacade(t *testing.T) {
	report, err := assertionbench.SelfCheck(context.Background(), assertionbench.SelfCheckOptions{
		Scenarios: 10, PropsPerDesign: 2, Seed: 3, Short: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Scenarios != 10 || report.Properties != 20 {
		t.Fatalf("report counts wrong: %+v", report)
	}
	if !report.OK() {
		for _, d := range report.Disagreements {
			t.Errorf("disagreement: %s", d)
		}
	}
	if report.DeterminismRuns == 0 {
		t.Error("determinism oracle did not run")
	}
}

func TestSelfCheckShortDefaultsAndDumpDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dumps")
	report, err := assertionbench.SelfCheck(context.Background(), assertionbench.SelfCheckOptions{
		Scenarios: 4, PropsPerDesign: 1, Seed: 9, DumpDir: dir, Short: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Scenarios != 4 {
		t.Fatalf("scenarios = %d, want 4", report.Scenarios)
	}
	// A clean run must not create the dump directory's contents.
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 && report.OK() {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("clean run wrote dump files: %s", strings.Join(names, ", "))
	}
}

func TestSelfCheckCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := assertionbench.SelfCheck(ctx, assertionbench.SelfCheckOptions{Scenarios: 2}); err == nil {
		t.Fatal("canceled SelfCheck returned nil error")
	}
}

// TestSelfCheckRejectsNegativeCounts: a negative scenario or property
// count is an error before any scenario runs. Scenarios -3 used to
// report OK having checked nothing, and PropsPerDesign -1 panicked.
func TestSelfCheckRejectsNegativeCounts(t *testing.T) {
	for _, opt := range []assertionbench.SelfCheckOptions{{Scenarios: -3}, {PropsPerDesign: -1, Short: true}} {
		report, err := assertionbench.SelfCheck(context.Background(), opt)
		if err == nil || report.Scenarios != 0 {
			t.Errorf("%+v: %d scenarios checked, err %v; want an error before any scenario", opt, report.Scenarios, err)
		}
	}
}
