// Command provload is the end-to-end benchmark of the provmind service. It
// builds provmind and provrouter from the checkout, spawns them as real
// processes, seeds instances, and drives them over HTTP from this one
// process with at most two connections: a warm-up, an open-loop phase at a
// fixed rate in which every request is timed from when it was due, and a
// closed-loop phase that measures capacity. Answers are checked against an
// in-process oracle, MinProv plus evaluation over a mirror of every
// instance, and any mismatch fails the run.
//
// Usage, from the repository root or through benchmark/bench.sh:
//
//	provload [-workload all|NAME] [-seed N] [-seconds 40] [-trace 0|1] [-out DIR]
//	provload -report DIR
//	provload -compare DIR_A DIR_B
//
// -seconds is the measured time of a run: three quarters open loop, one
// quarter closed loop, after an untimed warm-up of an eighth. With
// -trace 1 the run also records per-response cache flags and times direct
// calls into the layers, and reports per-layer metrics.
//
// For a single workload the last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics. The exit status is
// non-zero when an answer is wrong, a request failed, or the run was
// invalid (see benchmark/README.md).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// options are the command-line flags.
type options struct {
	workload, out, root, work, report, compare string
	seed                                       int64
	seconds, trace                             int
	smoke                                      bool
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == execIdleArg {
		err := execIdle(os.Args[2:])
		fmt.Fprintln(os.Stderr, "provload:", err)
		os.Exit(1)
	}
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+names())
	flag.Int64Var(&o.seed, "seed", 1, "seed of the instances and the request stream")
	flag.IntVar(&o.seconds, "seconds", 40, "measured seconds per run: 3/4 open loop, 1/4 closed loop")
	flag.IntVar(&o.trace, "trace", 0, "1 runs traced: per-response cache flags, layer probes, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory to write one result file per run into")
	flag.StringVar(&o.root, "root", "", "repository root to build the servers from (default: found from the working directory)")
	flag.StringVar(&o.work, "work", "", "scratch directory for binaries, data and logs (default: ROOT/.bench_build)")
	flag.BoolVar(&o.smoke, "smoke", false, "1 s phases and one set-up, to check the benchmark itself")
	flag.StringVar(&o.report, "report", "", "print medians, quartiles and tracing overhead of the result files in DIR")
	flag.StringVar(&o.compare, "compare", "", "compare the result files in DIR_A with those in DIR_B (the next argument)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "provload:", err)
		os.Exit(1)
	}
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// errFailed reports a run that completed but must not be trusted: a wrong
// answer, a failed request, or an invalid run.
var errFailed = errors.New("run failed its checks")

func run(o options) error {
	if o.report != "" {
		rs, err := loadResults(o.report)
		if err != nil {
			return err
		}
		report(os.Stdout, rs)
		return nil
	}
	if o.root == "" {
		var err error
		if o.root, err = findRoot(); err != nil {
			return err
		}
	}
	if o.compare != "" {
		if flag.NArg() != 1 {
			return errors.New("-compare needs two directories: -compare DIR_A DIR_B")
		}
		return compare(o.compare, flag.Arg(0), filepath.Join(o.root, "BENCHMARK.json"))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 4 {
		return errors.New("-seconds must be at least 4")
	}
	wls := workloads
	if o.workload != "all" {
		wl, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (want all, %s)", o.workload, names())
		}
		wls = []*workload{wl}
	}
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build")
	}
	// The servers run in their own directories, so their paths must not be
	// relative to this one.
	var err error
	if o.work, err = filepath.Abs(o.work); err != nil {
		return err
	}
	s := &settings{bin: filepath.Join(o.work, "bin"), work: o.work, seconds: o.seconds, setups: setupsPerRun, smoke: o.smoke}
	if o.smoke {
		s.setups = 1
	}
	if err := build(o.root, s.bin); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok := true
	for _, wl := range wls {
		res, err := runWorkload(ctx, s, wl, o.seed, o.trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		res.print(os.Stderr)
		if o.out != "" {
			if err := res.save(o.out); err != nil {
				return err
			}
		}
		line, err := res.summary()
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		ok = ok && res.valid()
	}
	if !ok {
		return errFailed
	}
	return nil
}

// findRoot walks up from the working directory to the module that holds
// the servers.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module provmin\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no provmin module (go.mod) in the working directory or above it; run from the repository")
		}
		dir = parent
	}
}

// build compiles the servers from the checkout into bin, outside any
// timed region.
func build(root, bin string) error {
	for _, cmd := range []string{"provmind", "provrouter"} {
		c := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		c.Dir = root
		c.Stdout, c.Stderr = os.Stderr, os.Stderr
		if err := c.Run(); err != nil {
			return fmt.Errorf("build %s: %w", cmd, err)
		}
	}
	return nil
}

func compare(dirA, dirB, boundsPath string) error {
	bs, err := loadBounds(boundsPath)
	if err != nil {
		return err
	}
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	agree := compareResults(w, a, b, bs)
	if err := w.Flush(); err != nil {
		return err
	}
	if !agree {
		return errors.New("some metrics are not within bound")
	}
	return nil
}
