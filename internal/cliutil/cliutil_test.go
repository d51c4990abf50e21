package cliutil

import (
	"bytes"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// captureFatal runs f with the exit seam and logger redirected,
// returning the exit status and stderr line.
func captureFatal(t *testing.T, f func()) (status int, msg string) {
	t.Helper()
	origExit := exit
	origOut := log.Writer()
	origFlags := log.Flags()
	origPrefix := log.Prefix()
	defer func() {
		exit = origExit
		log.SetOutput(origOut)
		log.SetFlags(origFlags)
		log.SetPrefix(origPrefix)
	}()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	log.SetFlags(0)
	log.SetPrefix("tool: ")
	status = -1
	exit = func(code int) {
		status = code
		panic("exit")
	}
	func() {
		defer func() { recover() }()
		f()
	}()
	return status, buf.String()
}

func TestFatalConvention(t *testing.T) {
	status, msg := captureFatal(t, func() { Fatal("boom") })
	if status != 2 {
		t.Errorf("Fatal exit = %d, want 2", status)
	}
	if msg != "tool: boom\n" {
		t.Errorf("Fatal stderr = %q", msg)
	}
	status, msg = captureFatal(t, func() { Fatalf("bad %s", "flag") })
	if status != 2 || msg != "tool: bad flag\n" {
		t.Errorf("Fatalf = (%d, %q)", status, msg)
	}
	status, msg = captureFatal(t, func() { ReadFile(filepath.Join(t.TempDir(), "absent.v")) })
	if status != 2 || !strings.Contains(msg, "absent.v") {
		t.Errorf("ReadFile = (%d, %q)", status, msg)
	}
	status, msg = captureFatal(t, func() { Assertions("", nil) })
	if status != 2 || !strings.Contains(msg, "no assertions") {
		t.Errorf("empty Assertions = (%d, %q)", status, msg)
	}
}

func TestAssertionsGathering(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "a.sva")
	if err := os.WriteFile(file, []byte("a |-> b\nc |=> d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := Assertions(file, []string{"x == 1"})
	if len(got) != 3 || got[0] != "x == 1" {
		t.Fatalf("Assertions = %q", got)
	}
}

// TestCLIErrorPaths is the table-driven harness over the real binaries:
// every CLI must exit 2 with a single "tool: ..." stderr line and an
// empty stdout for usage, missing-file and bad-flag-value failures.
func TestCLIErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binaries")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	binDir := t.TempDir()
	tools := []string{"fpv", "ablint", "acov", "mine", "assertgen", "abench", "figures", "finetune", "fuzzcheck"}
	for _, tool := range tools {
		cmd := exec.Command(goTool, "build", "-o", filepath.Join(binDir, tool), "assertionbench/cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	missing := filepath.Join(binDir, "no-such-design.v")
	badDesign := filepath.Join(binDir, "bad.v")
	if err := os.WriteFile(badDesign, []byte("module m(; endmodule"), 0o644); err != nil {
		t.Fatal(err)
	}
	goodDesign := filepath.Join(binDir, "good.v")
	if err := os.WriteFile(goodDesign, []byte("module m(a, y); input a; output y; assign y = a; endmodule"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tool string
		args []string
	}{
		{"fpv-no-args", "fpv", nil},
		{"fpv-missing-design", "fpv", []string{missing, "a |-> b"}},
		{"fpv-missing-assertion-file", "fpv", []string{"-f", missing, badDesign}},
		{"fpv-no-assertions", "fpv", []string{badDesign}},
		{"fpv-bad-design", "fpv", []string{badDesign, "a |-> b"}},
		{"ablint-no-args", "ablint", nil},
		{"ablint-missing-design", "ablint", []string{missing, "a |-> b"}},
		{"ablint-missing-assertion-file", "ablint", []string{"-f", missing, badDesign}},
		{"ablint-no-assertions", "ablint", []string{badDesign}},
		{"ablint-bad-design", "ablint", []string{badDesign, "a |-> b"}},
		{"acov-no-args", "acov", nil},
		{"acov-missing-design", "acov", []string{missing, "a |-> b"}},
		{"acov-no-assertions", "acov", []string{badDesign}},
		{"acov-bad-design", "acov", []string{badDesign, "a |-> b"}},
		{"mine-no-args", "mine", nil},
		{"mine-missing-design", "mine", []string{missing}},
		{"mine-bad-design", "mine", []string{badDesign}},
		{"mine-negative-max", "mine", []string{"-max", "-1", goodDesign}},
		{"assertgen-no-args", "assertgen", nil},
		{"assertgen-missing-design", "assertgen", []string{missing}},
		{"assertgen-bad-model", "assertgen", []string{"-model", "nonesuch", badDesign}},
		{"abench-bad-shard", "abench", []string{"-shard", "bogus"}},
		{"abench-bad-model", "abench", []string{"-model", "nonesuch", "-designs", "1"}},
		{"abench-negative-deadline", "abench", []string{"-deadline", "-1s", "-model", "gpt3.5", "-designs", "1"}},
		{"abench-bad-error-policy", "abench", []string{"-error-policy", "sometimes", "-model", "gpt3.5", "-designs", "1"}},
		{"abench-negative-retries", "abench", []string{"-retries", "-1", "-model", "gpt3.5", "-designs", "1"}},
		{"abench-resume-without-store", "abench", []string{"-resume", "-model", "gpt3.5", "-designs", "1"}},
		{"abench-bad-inject", "abench", []string{"-inject", "explode:1", "-model", "gpt3.5", "-designs", "1"}},
		{"fpv-resume-without-store", "fpv", []string{"-resume", badDesign, "a |-> b"}},
		{"figures-bad-only", "figures", []string{"-only", "bogus"}},
		{"finetune-unknown-base", "finetune", []string{"-base", "nonesuch"}},
		{"finetune-non-llama-base", "finetune", []string{"-base", "gpt4o"}},
		{"fuzzcheck-bad-n", "fuzzcheck", []string{"-n", "0"}},
		{"fuzzcheck-bad-props", "fuzzcheck", []string{"-props", "-1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(binDir, tc.tool), tc.args...)
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want a non-zero exit, got %v (stderr %q)", err, stderr.String())
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("exit status = %d, want 2 (stderr %q)", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("partial output on stdout: %q", stdout.String())
			}
			if !strings.HasPrefix(stderr.String(), tc.tool+": ") {
				t.Errorf("stderr = %q, want prefix %q", stderr.String(), tc.tool+": ")
			}
		})
	}
}

// TestContinuePolicyExitsOneWithFullOutput: an errored sweep under
// -error-policy continue is the one non-zero exit that still prints
// everything — the full stream and metrics on stdout, the errored tally
// on stderr, exit status 1. Distinct from usage failures (exit 2, empty
// stdout) so scripts can tell a partially failed run from a misuse.
func TestContinuePolicyExitsOneWithFullOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the abench binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	binDir := t.TempDir()
	bin := filepath.Join(binDir, "abench")
	if out, err := exec.Command(goTool, "build", "-o", bin, "assertionbench/cmd/abench").CombinedOutput(); err != nil {
		t.Fatalf("build abench: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-model", "gpt3.5", "-designs", "2", "-stream",
		"-inject", "panic:0", "-error-policy", "continue")
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit 1, got %v (stderr %q)", err, stderr.String())
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit status = %d, want 1 (stderr %q)", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[errored:") {
		t.Errorf("stdout lacks the errored outcome mark:\n%s", out)
	}
	// Both designs stream for both shot counts, then the per-run metric
	// lines — the failure must not cost any output.
	for _, want := range []string{"#000", "#001", "1-shot:", "5-shot:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q — output was cut short:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "errored") {
		t.Errorf("stderr = %q, want the errored tally", stderr.String())
	}
}

// TestFPVResumeRepeatedAssertion: under -resume, an assertion given
// twice and verified in this run is not "resumed" on its second copy,
// so every later assertion keeps its own verdict and the journal records
// each verdict under its own text. A later -resume run then serves the
// verdict a plain run gives.
func TestFPVResumeRepeatedAssertion(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fpv binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fpv")
	if out, err := exec.Command(goTool, "build", "-o", bin, "assertionbench/cmd/fpv").CombinedOutput(); err != nil {
		t.Fatalf("build fpv: %v\n%s", err, out)
	}
	design := filepath.Join(dir, "cnt.v")
	src := "module cnt(input clk, input rst, input en, output reg [1:0] count);\n" +
		"always @(posedge clk)\n  if (rst) count <= 0;\n  else if (en) count <= count + 1;\nendmodule\n"
	if err := os.WriteFile(design, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	// run returns the verdict lines (the summary after the blank line is
	// dropped) and the exit status.
	run := func(args ...string) ([]string, int) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("fpv %q: %v (stderr %q)", args, err, stderr.String())
			}
			code = ee.ExitCode()
		}
		verdicts, _, _ := strings.Cut(stdout.String(), "\n\n")
		return strings.Split(verdicts, "\n"), code
	}
	const refuted = "en == 1 |=> count == 3"
	const holds = "rst == 1 |=> count != 3"

	lines, _ := run("-resume", "-cache-dir", store, design, refuted, refuted, holds)
	if len(lines) != 3 {
		t.Fatalf("want three verdict lines, got %q", lines)
	}
	for i, want := range []string{refuted, refuted, holds} {
		if !strings.Contains(lines[i], want) || strings.Contains(lines[i], "(resumed)") {
			t.Errorf("line %d = %q, want a fresh verdict for %q", i+1, lines[i], want)
		}
	}
	if !strings.HasPrefix(lines[2], "proven") {
		t.Errorf("line 3 = %q, want %q proven", lines[2], holds)
	}

	lines, code := run(design, holds)
	if code != 0 || !strings.HasPrefix(lines[0], "proven") {
		t.Fatalf("plain fpv: exit %d, %q; want %q proven", code, lines, holds)
	}
	lines, code = run("-resume", "-cache-dir", store, design, holds)
	if code != 0 || !strings.HasPrefix(lines[0], "proven") || !strings.Contains(lines[0], "(resumed)") {
		t.Errorf("resumed fpv: exit %d, %q; want %q proven (resumed)", code, lines, holds)
	}
}
