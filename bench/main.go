// Command flipload is the end-to-end benchmark of the flipper system. It
// generates its inputs from a seed and drives the system the way its users
// reach it — the flipper CLI as a child process, and flipperd's /v1 API
// (also as a cluster coordinator with two workers) on a loopback listener —
// in one of five closed-loop workloads, checks every output against a
// reference computed through a different path, and prints its metrics.
//
// Usage, from the repository root (bench/run.sh builds both binaries first):
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	flipload compare -base a1.out,a2.out,... -change b1.out,b2.out,... [-claim workload:metric]
//
// A run prints a header line (JSON with the workload, seed and machine),
// report lines starting with "# ", and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs (-trace 0)
// report the end-to-end metrics; traced runs (-trace 1) record spans at
// each layer boundary, run layer probes after the measured window, and
// report the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	fs := flag.NewFlagSet("flipload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-WORKLOAD-SEED.jsonl)")
	root := fs.String("root", ".", "checkout root; inputs and spans are written under its .bench_build")
	flipperBin := fs.String("flipper", "", "flipper CLI binary, needed by cli-cold")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadByName(*workload); !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "flipload: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	if *workload == "cli-cold" && *flipperBin == "" {
		fmt.Fprintln(stderr, "flipload: cli-cold needs -flipper")
		return 2
	}
	workDir, err := newWorkDir(*root)
	if err != nil {
		fmt.Fprintln(stderr, "flipload:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	o := options{
		workload:     *workload,
		seed:         *seed,
		seconds:      *seconds,
		trace:        *trace == 1,
		flipper:      *flipperBin,
		workDir:      workDir,
		scale:        1,
		setups:       3,
		setupSeconds: 2,
	}
	if o.trace {
		o.traceOut = *traceOut
		if o.traceOut == "" {
			o.traceOut = filepath.Join(*root, ".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
		}
	}
	header, _ := json.Marshal(map[string]any{
		"bench": "flipload", "workload": o.workload, "seed": o.seed, "trace": *trace, "seconds": o.seconds,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
	})
	fmt.Fprintln(stdout, string(header))
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(stderr, "flipload:", err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, "# "+line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "flipload:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
