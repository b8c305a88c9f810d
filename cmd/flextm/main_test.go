package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"flextm/internal/causal"
)

// TestMain makes the test binary double as the flextm command: a test
// re-executes it with FLEXTM_TEST_MAIN=1 and real command-line flags, so
// flag parsing, the run paths and the exit status are exercised exactly as
// a user invokes them.
func TestMain(m *testing.M) {
	if os.Getenv("FLEXTM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// flextm runs the command with args and fails the test on a non-zero exit.
func flextm(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FLEXTM_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("flextm %q: %v\n%s", args, err, stderr.String())
	}
	return out
}

// TestFlightQLGoldenOverLivelock: the livelock probe is deterministic and
// the FlightQL renderer is canonical, so the multi-query -query-out
// document is byte-stable. Two runs must match each other and the
// checked-in golden. After a deliberate protocol or query-engine change,
// regenerate testdata/flightql_golden.json with the same flags and commit
// it alongside the change.
func TestFlightQLGoldenOverLivelock(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "flightql_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var runs [2][]byte
	for i := range runs {
		out := filepath.Join(dir, "q.json")
		flextm(t, "-livelock",
			"-query", "group by kind",
			"-query", "filter kind == abort-enemy | group by core, peer agg count",
			"-query", "filter kind == cm-stall | group by line agg count, sum(dur), max(dur) | top 3 by sum(dur)",
			"-query", "at cycle 30000 show cores",
			"-query", "at cycle 30000 show lines where writers > 1",
			"-query", "filter kind == watchdog-trip | expect count >= 1",
			"-query-out", out)
		if runs[i], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("two same-seed runs wrote different -query-out documents")
	}
	if !bytes.Equal(runs[0], want) {
		t.Fatalf("-query-out differs from testdata/flightql_golden.json (%d vs %d bytes)", len(runs[0]), len(want))
	}
}

// TestTraceOutTimeline: -trace-out writes a parseable Chrome timeline with
// one pid-1 span per attempt the run printed (commits + aborts), and a
// FlexTM(Lazy) run's commit-loop kills show up as kill arrows.
func TestTraceOutTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := flextm(t, "-workload", "RBTree", "-system", "FlexTM(Lazy)", "-threads", "4",
		"-metrics", "-trace-out", path)
	var commits, aborts int
	for _, line := range bytes.Split(out, []byte("\n")) {
		fmt.Sscanf(string(line), "commits %d", &commits)
		fmt.Sscanf(string(line), "aborts %d", &aborts)
	}
	if commits == 0 {
		t.Fatalf("no commit count in the output:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []causal.ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("timeline is not trace_event JSON: %v", err)
	}
	spans, starts, finishes := 0, map[uint64]bool{}, map[uint64]bool{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Phase == "X" && e.PID == 1:
			spans++
		case e.Phase == "s" && e.Name == "kill":
			starts[e.ID] = true
		case e.Phase == "f" && e.Name == "kill":
			finishes[e.ID] = true
		}
	}
	if spans != commits+aborts {
		t.Fatalf("%d pid-1 spans, want %d commits + %d aborts", spans, commits, aborts)
	}
	pairs := 0
	for id := range starts {
		if finishes[id] {
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatalf("no kill flow pair in a FlexTM(Lazy) timeline (%d starts, %d finishes)", len(starts), len(finishes))
	}
}
