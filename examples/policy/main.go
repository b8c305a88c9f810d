// Policy: the paper's headline argument in one program — the same hardware
// under different software policies. It runs the contended RandomGraph
// workload with eager and lazy conflict management and with four different
// contention managers, showing how FlexTM leaves those choices to software.
package main

import (
	"fmt"

	"flextm/internal/cm"
	"flextm/internal/core"
	"flextm/internal/harness"
	"flextm/internal/sim"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

const (
	threads = 16
	ops     = 200
)

func run(mode core.Mode, mgr cm.Manager) (throughput float64, abortRate float64) {
	sys := tmesi.New(tmesi.DefaultConfig())
	rt := core.New(sys, mode, mgr)
	w := workloads.NewRandomGraph()
	env := harness.Setup(sys, w)

	engine := sim.NewEngine()
	for i := 0; i < threads; i++ {
		coreID := i
		engine.Spawn("worker", 0, func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, coreID)
			for n := 0; n < ops; n++ {
				w.Op(th)
			}
		})
	}
	engine.Run()
	if err := w.Verify(env); err != nil {
		panic(err)
	}
	st := rt.Stats()
	return float64(st.Commits) / float64(engine.MaxTime()) * 1e6, st.AbortRate()
}

func main() {
	fmt.Printf("RandomGraph, %d threads: one hardware substrate, software-chosen policy\n\n", threads)
	fmt.Printf("%-8s %-12s %14s %14s\n", "mode", "manager", "txn/Mcycle", "aborts/commit")
	for _, mode := range []core.Mode{core.Eager, core.Lazy} {
		for _, mgr := range []cm.Manager{cm.NewPolka(), cm.NewKarma(), cm.NewGreedy(), cm.NewTimestamp(), cm.Timid{}, cm.Aggressive{}} {
			thr, ar := run(mode, mgr)
			fmt.Printf("%-8s %-12s %14.1f %14.2f\n", mode, mgr.Name(), thr, ar)
		}
	}
	fmt.Println("\nLazy + Polka maximizes concurrency under contention, as in Figure 5(d);")
	fmt.Println("the policy changed, the hardware did not.")
}
