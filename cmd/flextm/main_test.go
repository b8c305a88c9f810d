package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
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
