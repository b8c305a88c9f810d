package main

import (
	"strings"
	"testing"

	"flextm/internal/harness"
)

const tracesText = `File: perfbench
Type: samples
Duration: 1.62s, Total samples = 12
-----------+-------------------------------------------------------
         3   runtime.chanrecv
             flextm/internal/sim.(*Ctx).yield (inline)
             flextm/internal/sim.(*Ctx).Sync
             flextm/internal/tmesi.(*System).Store
-----------+-------------------------------------------------------
         2   flextm/internal/cache.(*Cache).forEach
             flextm/internal/tmesi.(*System).casCommit
-----------+-------------------------------------------------------
         1   main.countingTxn.Load
             flextm/internal/baselines/tl2.(*Thread).Atomic
-----------+-------------------------------------------------------
         1   flextm/internal/fault.(*Injector).Roll
-----------+-------------------------------------------------------
         2   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
         2   runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
         1   runtime.sigtramp
-----------+-------------------------------------------------------
`

func TestFoldTracesAttributesEverySample(t *testing.T) {
	counts, total, err := foldTraces(strings.NewReader(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sim": 3, "cache": 2, "tl2": 1, "gc": 2, "sched": 2, "other": 2}
	if total != 12 {
		t.Errorf("total = %d, want 12", total)
	}
	var sum int64
	for _, l := range layers {
		sum += counts[l]
		if counts[l] != want[l] {
			t.Errorf("%s = %d, want %d", l, counts[l], want[l])
		}
	}
	if sum != total {
		t.Errorf("layers sum to %d of %d samples", sum, total)
	}
}

func TestFoldTracesRejectsMalformedSample(t *testing.T) {
	bad := "-----------+----\n      12ms   runtime.main\n"
	if _, _, err := foldTraces(strings.NewReader(bad)); err == nil {
		t.Fatal("no error for a non-integer sample count")
	}
}

func TestMetricName(t *testing.T) {
	for sys, want := range map[string]string{"FlexTM(Eager)": "FlexTM-Eager", "RTM-F": "RTM-F", "CGL": "CGL"} {
		if got := metricName(harness.SystemName(sys)); got != want {
			t.Errorf("metricName(%q) = %q, want %q", sys, got, want)
		}
	}
}
