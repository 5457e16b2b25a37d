package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"earthing"
)

var update = flag.Bool("update", false, "rewrite the golden transcripts")

func goldenPath(name string) string {
	return filepath.Join("..", "..", "artifacts", "golden", name+".golden")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("transcript differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// fastArgs is a small, quick synthesis problem: a 10×10 m site in uniform
// soil with a tight eval budget. The seed pins the search trajectory.
func fastArgs(extra ...string) []string {
	args := []string{
		"-width", "10", "-height", "10",
		"-soil", "uniform", "-gamma1", "0.02",
		"-fault", "100", "-fault-t", "0.5",
		"-min-lines", "2", "-max-lines", "4", "-max-rods", "2",
		"-min-depth", "0.5", "-max-depth", "0.7", "-depth-step", "0.1",
		"-rod-elements", "2", "-series-tol", "1e-2",
		"-voltage-res", "2.5",
		"-starts", "2", "-max-evals", "120", "-seed", "1",
		"-workers", "1",
	}
	return append(args, extra...)
}

// TestGoldenTranscript pins the whole synthesis transcript — every improving
// generation, the search counters, the selected design and its grid text.
// Everything the CLI prints is deterministic for a fixed seed, so no
// filtering is needed.
func TestGoldenTranscript(t *testing.T) {
	var buf bytes.Buffer
	if err := run(fastArgs(), &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, "designer-uniform-fast", buf.String())
}

// TestDeterministicAcrossWorkers asserts the CLI's core contract: the full
// transcript is byte-identical at any -workers setting.
func TestDeterministicAcrossWorkers(t *testing.T) {
	var base string
	for _, workers := range []string{"1", "2", "4"} {
		args := fastArgs()
		args[len(args)-1] = workers
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		if base == "" {
			base = buf.String()
			continue
		}
		if buf.String() != base {
			t.Errorf("workers=%s transcript differs from workers=1", workers)
		}
	}
}

// TestJSONStream checks the -json mode: NDJSON progress lines then a final
// summary object, mirroring the /v1/optimize wire format.
func TestJSONStream(t *testing.T) {
	var buf bytes.Buffer
	if err := run(fastArgs("-json"), &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want progress + final lines, got %d", len(lines))
	}
	var last struct {
		Final bool                      `json:"final"`
		Best  *earthing.OptimizedDesign `json:"best"`
		Stats earthing.OptimizeStats    `json:"stats"`
		Error string                    `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("final line: %v", err)
	}
	if !last.Final || last.Best == nil || !last.Best.Feasible || last.Error != "" {
		t.Fatalf("bad final line: %+v", last)
	}
	if last.Stats.Evaluated == 0 || last.Stats.Requested != last.Stats.Evaluated+last.Stats.CacheHits {
		t.Fatalf("inconsistent stats: %+v", last.Stats)
	}
	for _, l := range lines[:len(lines)-1] {
		var p earthing.OptimizeProgress
		if err := json.Unmarshal([]byte(l), &p); err != nil {
			t.Fatalf("progress line %q: %v", l, err)
		}
		if p.Best.Grid != nil {
			t.Fatalf("progress line should not serialize the grid")
		}
	}
}

// TestNoFeasible drives a hopeless fault current: run prints the
// least-violating design and returns the sentinel error.
func TestNoFeasible(t *testing.T) {
	args := fastArgs()
	for i, a := range args {
		if a == "-fault" {
			args[i+1] = "1e6"
		}
	}
	var buf bytes.Buffer
	err := run(args, &buf)
	if !errors.Is(err, earthing.ErrNoFeasibleOptimize) {
		t.Fatalf("want ErrNoFeasibleOptimize, got %v", err)
	}
	if !strings.Contains(buf.String(), "violates limits") {
		t.Fatalf("transcript should show the least-violating design:\n%s", buf.String())
	}
}

// TestBadArgs covers the flag validation paths.
func TestBadArgs(t *testing.T) {
	cases := [][]string{
		{},                         // missing -fault
		fastArgs("extra"),          // positional args
		fastArgs("-soil", "bogus"), // unknown soil
		fastArgs("-weight", "90kg"),
		fastArgs("-gamma1", "-1"),
		fastArgs("-gamma1", "NaN"),
		fastArgs("-gamma1", "Inf"),
		fastArgs("-soil", "two-layer", "-gamma2", "NaN"),
		fastArgs("-soil", "two-layer", "-gamma2", "Inf"),
		fastArgs("-soil", "two-layer", "-h1", "NaN"),
		fastArgs("-soil", "two-layer", "-h1", "Inf"),
		fastArgs("-schedule", "bogus"),
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %q: want error", args)
		}
	}
}

// TestHTMLReport checks the -html path writes a report for the winner.
func TestHTMLReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "design.html")
	var buf bytes.Buffer
	if err := run(fastArgs("-html", out), &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "Automated grounding design") {
		t.Fatalf("report missing title")
	}
	if !strings.Contains(buf.String(), "HTML report written to") {
		t.Fatalf("transcript missing report note")
	}
}
