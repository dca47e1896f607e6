// Command ckptbench is NUMARCK's end-to-end checkpoint benchmark. It
// drives the checkpoint service daemon (in process, over a loopback
// listener, through server.Client) and the in-situ library
// (checkpoint.Writer and ReadView) with closed-loop workloads, checks
// every output against the generated truth with checkers of its own,
// and prints one JSON result line:
//
//	ckptbench --workload daemon-long-chain --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced phase plus the
// tracing overhead against an untraced phase of the same run. See
// README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// wallLimit bounds a whole run, set-up and checks included. When it is
// hit the benchmark closes everything it opened and exits non-zero.
const wallLimit = 170 * time.Second

// setupReps is how many times a run sets its workload up; setup_s is
// the median and the last set-up is the one measured.
const setupReps = 3

// minOps is the least number of commits and of restarts a measured
// phase records, so that its p90 has ten samples beyond it.
const minOps = 100

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's parsed flags.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tmp      string
}

// run parses flags, runs the workload under the wall-clock limit and
// prints the result. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ckptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced phase")
	fs.StringVar(&cfg.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "directory for the run's temporary stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	spec, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "ckptbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "ckptbench: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp(cfg.tmp, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "ckptbench: %v\n", err)
		return 1
	}
	cl := &closers{}
	cl.add(func() error { return os.RemoveAll(root) })

	// The watchdog: past the wall limit, close what is open and leave.
	// Closing the daemon fails any call still in flight, so the
	// workload goroutine stops too; exiting does not wait for it.
	timer := time.AfterFunc(wallLimit, func() {
		cl.closeAll()
		fmt.Fprintf(stderr, "ckptbench: wall-clock limit %v hit; closed everything\n", wallLimit)
		os.Exit(3)
	})
	defer timer.Stop()

	res, err := measure(cfg, spec, root, cl)
	if cerr := cl.closeAll(); err == nil && cerr != nil {
		err = fmt.Errorf("cleanup: %w", cerr)
	}
	if res != nil {
		if len(res.factors) > 0 {
			fmt.Fprintf(stderr, "ckptbench: times scaled by the unstolen CPU share, median %.3f over %d rounds\n", median(res.factors), len(res.factors))
		}
		fmt.Fprintln(stdout, res.opsLine())
		line, jerr := json.Marshal(res.out)
		if jerr != nil {
			fmt.Fprintf(stderr, "ckptbench: %v\n", jerr)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintf(stderr, "ckptbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return 0
}

// closers releases what a run opened, newest first, exactly once, from
// whichever of the main path and the watchdog gets there first.
type closers struct {
	mu   sync.Mutex
	fns  []func() error
	done bool
}

// add registers fn to run at close.
func (c *closers) add(fn func() error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fns = append(c.fns, fn)
}

// closeAll runs every registered closer once and joins their errors.
func (c *closers) closeAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return nil
	}
	c.done = true
	var errs []error
	for i := len(c.fns) - 1; i >= 0; i-- {
		errs = append(errs, c.fns[i]())
	}
	return errors.Join(errs...)
}

// workloadNames lists the workload names for usage messages.
func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names)
	return string(b)
}
