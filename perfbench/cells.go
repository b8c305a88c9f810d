package main

import (
	"fmt"
	"strings"

	"flextm/internal/harness"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// A cell is one harness.Run configuration of a benchmark workload.
type cell struct {
	// key names the cell in the reference file and in diagnostics.
	key     string
	system  harness.SystemName
	factory workloads.Factory
	threads int
	ops     int
	// observe attaches the observation plane (a pump on a bus).
	observe bool
	// twin is the key of the unobserved flextm-16t cell an observed cell
	// must reproduce exactly; empty for unobserved cells.
	twin string
}

// workloadNames lists the benchmark's workloads in documentation order.
var workloadNames = []string{"fig4-quick", "flextm-16t", "flextm-observed"}

// cellsFor returns the cells of a workload in the order they run.
func cellsFor(name string) ([]cell, error) {
	switch name {
	case "fig4-quick":
		return fig4QuickCells(), nil
	case "flextm-16t":
		return flexTM16Cells(), nil
	case "flextm-observed":
		return observedCells(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// fig4QuickCells is exactly the work of `paperbench -quick -fig 4` at
// -parallel 1: the seven 1-thread CGL normalization baselines first, then
// each workload × its Figure 4 systems × {1,4,16} threads at 80 ops.
func fig4QuickCells() []cell {
	const ops = 80
	threads := []int{1, 4, 16}
	var out []cell
	for _, f := range workloads.All() {
		out = append(out, cell{key: "fig4/baseline/" + f.Name, system: harness.CGL, factory: f, threads: 1, ops: ops})
	}
	for _, f := range workloads.All() {
		systems := []harness.SystemName{harness.CGL, harness.FlexTMEager, harness.RTMF, harness.RSTM}
		if strings.HasPrefix(f.Name, "Vacation") {
			systems = []harness.SystemName{harness.CGL, harness.FlexTMEager, harness.TL2}
		}
		for _, sys := range systems {
			for _, th := range threads {
				out = append(out, cell{key: gridKey("fig4", sys, f.Name, th), system: sys, factory: f, threads: th, ops: ops})
			}
		}
	}
	return out
}

// flexTM16Cells runs both FlexTM modes on six workloads at 16 threads and
// the paper's op count: the paper's own mechanisms do the work.
func flexTM16Cells() []cell {
	var out []cell
	for _, name := range []string{"HashTable", "RBTree", "LFUCache", "RandomGraph", "Delaunay", "Vacation-High"} {
		f, _ := workloads.ByName(name)
		for _, sys := range []harness.SystemName{harness.FlexTMEager, harness.FlexTMLazy} {
			out = append(out, cell{key: gridKey("flextm16", sys, name, 16), system: sys, factory: f, threads: 16, ops: harness.DefaultOps})
		}
	}
	return out
}

// observedCells are three flextm-16t workloads in both modes with the
// observation plane attached; flextm-16t is their unobserved twin.
func observedCells() []cell {
	var out []cell
	for _, c := range flexTM16Cells() {
		switch c.factory.Name {
		case "RBTree", "LFUCache", "RandomGraph":
			c.twin = c.key
			c.key = gridKey("observed", c.system, c.factory.Name, c.threads)
			c.observe = true
			out = append(out, c)
		}
	}
	return out
}

func gridKey(prefix string, sys harness.SystemName, workload string, threads int) string {
	return fmt.Sprintf("%s/%s/%s/%d", prefix, sys, workload, threads)
}

// variants is the number of distinct warm-up lengths seeds select.
const variants = 8

// variantOf maps a seed to a warm-up variant; seeds divisible by variants
// select variant 0.
func variantOf(seed int64) int {
	return int((seed%variants + variants) % variants)
}

// warmupOps is the untimed warm-up length of a variant. Thread RNGs derive
// from core ids and RunConfig has no seed, so the warm-up length is what a
// seed can vary: a longer warm-up leaves each cell in another starting
// state with another schedule. Variant 0 keeps harness.DefaultWarmup, so
// fig4-quick then reproduces BENCH_baseline.json. The step is a multiple
// of 16 so every thread count gets a distinct per-thread warm-up.
func warmupOps(variant int) int {
	return harness.DefaultWarmup + 16*variant
}

// runConfig builds the harness configuration of a cell.
func (c cell) runConfig(f workloads.Factory, warmup int) harness.RunConfig {
	return harness.RunConfig{
		System:       c.system,
		Workload:     f,
		Threads:      c.threads,
		OpsPerThread: c.ops,
		Machine:      tmesi.DefaultConfig(),
		Verify:       true,
		WarmupOps:    warmup,
	}
}
