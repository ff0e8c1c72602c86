// Command flipbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	flipbench -list
//	flipbench -exp fig8a [-scale quick|paper] [-csv out.csv] [-seed 7]
//	flipbench -exp all   [-scale quick]
//	flipbench -json BENCH_PR3.json [-tag PR3]
//
// Each experiment prints a text table mirroring the corresponding paper
// artifact; -csv additionally writes machine-readable output. The quick
// scale (default) shrinks the workloads so the full suite finishes in
// minutes; -scale paper runs the original sizes (expect the BASIC baseline
// to take a very long time in the low-support regime, as the paper reports).
//
// -json runs the counting micro-benchmark suite (the BenchmarkCountingDense
// workload under testing.Benchmark, cold, warm and per shard count, anchored
// top-K on it, plus scan mines on the default synthetic data) and
// writes machine-readable results — benchmark name, ns/op, allocs/op,
// engine counters, the machine's GOMAXPROCS — to the given file. Committed
// BENCH_<tag>.json files record the repo's perf trajectory; CI regenerates
// one per run and uploads it as an artifact. The "sharding" experiment
// (-exp sharding) prints the shard-count scaling table for this machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"github.com/flipper-mining/flipper/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale      = flag.String("scale", "quick", "workload scale: quick or paper")
		csvDir     = flag.String("csv", "", "directory to write <exp>.csv files into")
		seed       = flag.Int64("seed", 1, "generator seed")
		listExp    = flag.Bool("list", false, "list available experiments")
		jsonPath   = flag.String("json", "", "run the counting micro-bench suite and write BENCH JSON to this file")
		tag        = flag.String("tag", "dev", "tag recorded in the -json output")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flipbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "flipbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "flipbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *cpuprofile)
		}()
	}

	if *jsonPath != "" {
		if err := runBenchJSON(*jsonPath, *tag); err != nil {
			fmt.Fprintf(os.Stderr, "flipbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
		return
	}

	if *listExp || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Desc)
		}
		if *exp == "" && !*listExp {
			os.Exit(2)
		}
		return
	}

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.Quick()
	case "paper":
		s = experiments.Paper()
	default:
		fmt.Fprintf(os.Stderr, "flipbench: unknown scale %q (want quick or paper)\n", *scale)
		os.Exit(2)
	}
	s.Seed = *seed

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "flipbench: %v\n", err)
			os.Exit(1)
		}
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = []string{*exp}
	}

	for _, id := range ids {
		run, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "flipbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		tbl, err := run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flipbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "flipbench: render: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		if *csvDir != "" {
			path := filepath.Join(*csvDir, id+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flipbench: %v\n", err)
				os.Exit(1)
			}
			if err := tbl.WriteCSV(f); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "flipbench: csv: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "flipbench: close: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}
