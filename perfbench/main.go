// Command perfbench is the repository benchmark. It drives the attack
// engine and the attack daemon only through their public entry points
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Workloads (see README.md for why each was chosen):
//
//	attack-kp512    incremental AFA campaigns on SHA3-512, byte faults,
//	                known positions, solving after every fault
//	service-refute  an in-process afad daemon on loopback, driven by two
//	                closed-loop HTTP clients with jobs whose correct
//	                answer is "inconsistent"
//
// With -trace 0 the end-to-end metrics are printed; with -trace 1 the
// run repeats the same ops once untraced and once with the program's
// recorder attached, and prints the per-layer metrics.
//
// Usage (normally through run.py, which builds the binary first):
//
//	perfbench -workload attack-kp512 -seed 1 -seconds 45 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// hardLimit bounds a whole run: the contract asks every run to exit
// within 180 s, so in-flight ops are interrupted (and count as failed)
// once this much time has passed since start.
const hardLimit = 170 * time.Second

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration // how long new ops are started, per phase
	trace    bool
	root     string // repository root: commit and source digest
	workdir  string // scratch space for daemon state directories
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "attack-kp512 | service-refute")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 45, "how long each timed phase starts new ops")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced repeat")
	root := fs.String("root", ".", "repository root (recorded commit and source digest)")
	workdir := fs.String("workdir", ".bench_build", "directory for daemon state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     *root,
		workdir:  *workdir,
	}

	var wl func(context.Context, options, io.Writer) (*report, error)
	switch o.workload {
	case "attack-kp512":
		wl = runAttack
	case "service-refute":
		wl = runRefute
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}

	env := captureEnv(o)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(out, "# env %s\n", envJSON)

	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	rep, err := wl(ctx, o, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := rep.result(o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}
