package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"flextm/internal/benchfmt"
)

// referenceFile is where -gen-reference writes, relative to the repository
// root; the build embeds it.
const referenceFile = "perfbench/reference.json"

//go:embed reference.json
var referenceJSON []byte

// reference holds the expected outcome digest of every fig4-quick and
// flextm-16t cell at every warm-up variant. flextm-observed cells are
// checked against their flextm-16t twins.
type reference struct {
	Note     string    `json:"note"`
	Variants []variant `json:"variants"`
}

type variant struct {
	WarmupOps int               `json:"warmupOps"`
	Cells     map[string]string `json:"cells"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if len(ref.Variants) != variants {
		return nil, fmt.Errorf("reference: %d warm-up variants, want %d", len(ref.Variants), variants)
	}
	for i, v := range ref.Variants {
		if v.WarmupOps != warmupOps(i) {
			return nil, fmt.Errorf("reference: variant %d has warm-up %d, want %d", i, v.WarmupOps, warmupOps(i))
		}
	}
	return &ref, nil
}

// baselineFile pins the simulated results of `paperbench -quick -fig 4`.
const baselineFile = "BENCH_baseline.json"

// baselineKey names a cell of BENCH_baseline.json.
func baselineKey(system, workload string, threads int) string {
	return fmt.Sprintf("%s/%s/%d", system, workload, threads)
}

// loadBaseline indexes the fig4 cells of BENCH_baseline.json.
func loadBaseline() (map[string]benchfmt.Cell, error) {
	a, err := benchfmt.ReadFile(baselineFile)
	if err != nil {
		return nil, err
	}
	out := map[string]benchfmt.Cell{}
	for _, c := range a.Cells {
		if c.Figure == "fig4" {
			out[baselineKey(c.System, c.Workload, c.Threads)] = c
		}
	}
	return out, nil
}

// newChecker returns the correctness check for one warm-up variant. Every
// cell must reproduce its reference digest; at the default warm-up,
// fig4-quick cells must also equal BENCH_baseline.json in commits, aborts
// and cycles.
func newChecker(ref *reference, vi int) (checker, error) {
	want := ref.Variants[vi].Cells
	var base map[string]benchfmt.Cell
	if vi == 0 {
		var err error
		if base, err = loadBaseline(); err != nil {
			return nil, err
		}
	}
	return func(c cell, s sample) error {
		key := c.key
		if c.twin != "" {
			key = c.twin
		}
		d, ok := want[key]
		if !ok {
			return fmt.Errorf("%s: no reference outcome", c.key)
		}
		if d != s.digest {
			return fmt.Errorf("%s: outcome %s differs from reference %s", c.key, s.digest, d)
		}
		if base != nil && strings.HasPrefix(c.key, "fig4/") {
			return checkBaseline(base, c, s.res)
		}
		return nil
	}, nil
}

func checkBaseline(base map[string]benchfmt.Cell, c cell, o outcome) error {
	b, ok := base[baselineKey(string(c.system), c.factory.Name, c.threads)]
	if !ok {
		return fmt.Errorf("%s: not in %s", c.key, baselineFile)
	}
	if b.Commits != o.Commits || b.Aborts != o.Aborts || b.Cycles != o.Cycles {
		return fmt.Errorf("%s: commits/aborts/cycles %d/%d/%d, %s has %d/%d/%d",
			c.key, o.Commits, o.Aborts, o.Cycles, baselineFile, b.Commits, b.Aborts, b.Cycles)
	}
	return nil
}

// generateReference runs every fig4-quick and flextm-16t cell once per
// warm-up variant and writes their digests. It refuses to write when a
// cell fails, when the default variant does not reproduce
// BENCH_baseline.json, or when an observed cell differs from its twin.
func generateReference() error {
	base, err := loadBaseline()
	if err != nil {
		return err
	}
	ref := reference{Note: "Expected outcome digests of every cell, by warm-up variant. " +
		"Regenerate only when a change is meant to alter simulated results: bash perfbench/run.sh --gen-reference"}
	var cells []cell
	for _, name := range []string{"fig4-quick", "flextm-16t"} {
		cs, _ := cellsFor(name)
		cells = append(cells, cs...)
	}
	for vi := 0; vi < variants; vi++ {
		v := variant{WarmupOps: warmupOps(vi), Cells: map[string]string{}}
		for _, c := range cells {
			s, err := runCell(c, v.WarmupOps, nil)
			if err != nil {
				return err
			}
			if vi == 0 && strings.HasPrefix(c.key, "fig4/") {
				if err := checkBaseline(base, c, s.res); err != nil {
					return err
				}
			}
			v.Cells[c.key] = s.digest
		}
		for _, c := range observedCells() {
			s, err := runCell(c, v.WarmupOps, nil)
			if err != nil {
				return err
			}
			if s.digest != v.Cells[c.twin] {
				return fmt.Errorf("%s: observed outcome differs from %s at warm-up %d", c.key, c.twin, v.WarmupOps)
			}
		}
		fmt.Fprintf(os.Stderr, "variant %d (warm-up %d): %d cells\n", vi, v.WarmupOps, len(v.Cells))
		ref.Variants = append(ref.Variants, v)
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referenceFile, append(b, '\n'), 0o644)
}
