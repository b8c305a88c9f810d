package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the shares a CPU profile is folded into, in report order.
// They always sum to 100% of the profile's samples.
var layers = []string{
	"sim", "sched", "tmesi", "cache", "signature", "memory", "core", "cm",
	"tl2", "rstm", "rtmf", "cgl", "workloads", "harness",
	"telemetry", "flight", "observatory", "gc", "other",
}

// packageLayer maps a package under flextm/internal to its layer. The
// hardware tables tmesi drives (CSTs, alert-on-update, overflow tables)
// count as tmesi; the conflict-graph analysis the observatory runs counts
// as observatory. Packages missing here count as other.
var packageLayer = map[string]string{
	"sim": "sim", "tmesi": "tmesi", "cst": "tmesi", "aou": "tmesi", "overflow": "tmesi",
	"cache": "cache", "signature": "signature", "memory": "memory",
	"core": "core", "cm": "cm",
	"baselines/tl2": "tl2", "baselines/rstm": "rstm", "baselines/rtmf": "rtmf", "baselines/cgl": "cgl",
	"workloads": "workloads", "harness": "harness",
	"telemetry": "telemetry", "flight": "flight",
	"observatory": "observatory", "conflictgraph": "observatory",
}

const internalPrefix = "flextm/internal/"

// stackLayer assigns one sample's stack, innermost frame first, to a
// layer: the innermost flextm/internal frame decides. A stack with none
// is the Go runtime's own: a GC worker counts as gc, and a goroutine
// parking or being scheduled (the switch after each of the simulator's
// channel handoffs, which the profiler records on the scheduler's stack,
// not under the simulated thread) counts as sched.
func stackLayer(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if l, ok := packageLayer[pkg]; ok {
				return l
			}
			return "other"
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		case "runtime.mcall", "runtime.schedule", "runtime.findRunnable":
			return "sched"
		}
	}
	return "other"
}

// foldTraces reads `go tool pprof -sample_index=samples -traces` output:
// blocks separated by dashed lines, each a sample count and the leaf
// function on its first line and one caller per following line. It
// returns the samples per layer and the total.
func foldTraces(r io.Reader) (map[string]int64, int64, error) {
	counts := make(map[string]int64, len(layers))
	var total, n int64
	var frames []string
	inBlock := false
	flush := func() {
		if inBlock && len(frames) > 0 {
			counts[stackLayer(frames)] += n
			total += n
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			continue // header: file, type, duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			v, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			n = v
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	return counts, total, nil
}

// foldProfile folds a CPU profile through the go tool's text output, so the
// benchmark needs no profile-parsing dependency.
func foldProfile(path string) (map[string]int64, int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-sample_index=samples", "-traces", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(strings.NewReader(string(out)))
}
