package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary launch servers the way provload does: it
// re-executes itself with execIdleArg to exec a server under SCHED_IDLE.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == execIdleArg {
		err := execIdle(os.Args[2:])
		fmt.Fprintln(os.Stderr, "provload:", err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads builds the servers and runs every workload with
// 1 s phases, checking answers, validity and the layer assertions.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the servers")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	s := &settings{bin: filepath.Join(work, "bin"), work: work, setups: 1, smoke: true}
	if err := build(root, s.bin); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, wl := range workloads {
		res, err := runWorkload(context.Background(), s, wl, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.valid() {
			t.Errorf("%s: correct=%t failed=%d problems=%q", wl.name, res.Correct, res.Failed, res.Problems)
		}
		if res.Checked == 0 {
			t.Errorf("%s: the oracle checked nothing", wl.name)
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke run of all workloads took %v, want under 30s", d)
	}
}
