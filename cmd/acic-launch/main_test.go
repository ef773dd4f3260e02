package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acic/internal/netsim"
	"acic/internal/tram"
)

// TestMain lets the test binary stand in for the acic-launch binary:
// runLauncher re-executes os.Executable() with "-worker N", which inside a
// test process is this very binary — so worker argv is routed to main()
// instead of the test runner, and TestLaunchInProcess can drive the real
// launcher code path under coverage.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-worker" || strings.HasPrefix(a, "-worker=") {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

// TestLaunchSmoke builds the binary and runs a real multi-process launch:
// four worker OS processes over loopback TCP, verified against Dijkstra
// by the launcher itself (-verify is the default).
func TestLaunchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := filepath.Join(t.TempDir(), "acic-launch")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building acic-launch: %v", err)
	}

	cases := []struct {
		name string
		args []string
	}{
		{"rmat-4proc", []string{"-kind", "rmat", "-scale", "9", "-ppn", "4", "-pepp", "2"}},
		{"grid-4proc", []string{"-kind", "grid", "-scale", "8", "-ppn", "4", "-pepp", "1"}},
		// 4,096 vertices per worker: each RESULT line is ~100 KiB, past
		// the 64 KiB a bufio.Scanner accepts.
		{"random-scale14-4proc", []string{"-kind", "random", "-scale", "14", "-ppn", "4", "-pepp", "2"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-timeout", "60s"}, tc.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("launch failed: %v\n%s", err, out)
			}
			if !strings.Contains(string(out), "verified=true") {
				t.Fatalf("launch did not verify:\n%s", out)
			}
		})
	}
}

// TestLaunchInProcess drives runLauncher directly (workers are this test
// binary, see TestMain): the handshake, merge, ledger checks and Dijkstra
// validation all run in this process.
func TestLaunchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	cfg := runCfg{
		kind: "grid", scale: 6, edgeFactor: 2, seed: 5, source: 0,
		topo:  netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2},
		ptram: 0.999, ppq: 0.05, bufSize: tram.DefaultCapacity,
	}
	if err := runLauncher(cfg, true, time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestBuildGraphKinds pins the graph recipes every worker rebuilds from
// argv, and that an unknown kind is rejected.
func TestBuildGraphKinds(t *testing.T) {
	for _, kind := range []string{"rmat", "random", "grid"} {
		cfg := runCfg{kind: kind, scale: 4, edgeFactor: 2, seed: 1}
		g, err := cfg.buildGraph()
		if err != nil || g.NumVertices() == 0 {
			t.Errorf("buildGraph(%q): %v", kind, err)
		}
	}
	if _, err := (runCfg{kind: "bogus", scale: 4}).buildGraph(); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestArgvRoundTrips pins that a worker rebuilt from argv sees the
// launcher's exact configuration.
func TestArgvRoundTrips(t *testing.T) {
	cfg := runCfg{
		kind: "rmat", scale: 7, edgeFactor: 4, seed: 9, source: 3,
		topo:  netsim.Topology{Nodes: 2, ProcsPerNode: 3, PEsPerProc: 2},
		ptram: 0.9, ppq: 0.1, bufSize: 256,
	}
	argv := cfg.argv(4)
	got := map[string]string{}
	for i := 0; i+1 < len(argv); i += 2 {
		got[argv[i]] = argv[i+1]
	}
	for flagName, want := range map[string]string{
		"-kind": "rmat", "-scale": "7", "-edgefactor": "4", "-seed": "9",
		"-source": "3", "-nodes": "2", "-ppn": "3", "-pepp": "2",
		"-ptram": "0.9", "-ppq": "0.1", "-bufsize": "256", "-worker": "4",
	} {
		if got[flagName] != want {
			t.Errorf("argv %s = %q, want %q", flagName, got[flagName], want)
		}
	}
	opts := cfg.options()
	if opts.Params.PTram != cfg.ptram || opts.Params.PPQ != cfg.ppq || opts.Params.TramCapacity != cfg.bufSize {
		t.Errorf("options() dropped a parameter: %+v", opts.Params)
	}
	if opts.Topo != cfg.topo {
		t.Errorf("options() topo = %+v, want %+v", opts.Topo, cfg.topo)
	}
}

// TestLaunchRejectsBadTopology pins that a bad shape fails before any
// worker spawns.
func TestLaunchRejectsBadTopology(t *testing.T) {
	cfg := runCfg{kind: "grid", scale: 6, edgeFactor: 2, seed: 1}
	if err := runLauncher(cfg, false, 0); err == nil {
		t.Fatal("zero topology accepted")
	}
}
