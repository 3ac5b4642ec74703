// Command ntibench regenerates every experiment table of the paper
// reproduction (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for recorded outputs). Experiments are independent
// deterministic simulations, so they are fanned across the harness
// worker pool; output is always emitted in suite order (E1..E15)
// regardless of which worker finishes first.
//
// Usage:
//
//	ntibench [-seed N] [-workers N] [E1 E4 ...]   run selected experiments (default all)
//	ntibench -list                                list experiment ids
//	ntibench -cpuprofile cpu.out -memprofile mem.out E4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ntisim/internal/experiments"
	"ntisim/internal/harness"
	"ntisim/internal/prof"
)

func main() {
	seed := flag.Uint64("seed", 1998, "base random seed (runs are reproducible per seed)")
	list := flag.Bool("list", false, "list experiments and exit")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *list {
		for _, e := range experiments.Suite {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[a] = true
	}

	var selected []int
	for i, e := range experiments.Suite {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		selected = append(selected, i)
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "ntibench: no matching experiments (use -list)")
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntibench: %v\n", err)
		os.Exit(1)
	}

	// Fan the suite across the pool; results land index-addressed so the
	// emitted order matches the suite order bit-for-bit.
	results := make([]experiments.Result, len(selected))
	harness.ForEach(*workers, len(selected), func(i int) {
		results[i] = experiments.Suite[selected[i]].Run(*seed)
	})

	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "ntibench: %v\n", err)
		os.Exit(1)
	}

	failed := 0
	for _, res := range results {
		if !*asJSON {
			res.Fprint(os.Stdout)
		}
		if !res.Passed() {
			failed++
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "ntibench: %v\n", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ntibench: %d experiment(s) with failed claims\n", failed)
		os.Exit(1)
	}
	if !*asJSON {
		fmt.Printf("all %d experiments reproduce the paper's claims (seed %d)\n", len(results), *seed)
	}
}
