package main

import (
	"os"
	"testing"
)

func TestReplayFlags(t *testing.T) {
	cases := []struct {
		seed     uint64
		runs     int
		profiles string
		faults   string
		churn    string
		short    bool
		want     string
	}{
		{1, 1, "all", "all", "on", false, "-seed 1 -runs 1"},
		{7, 3, "all", "all", "on", true, "-seed 7 -runs 3 -short"},
		{2, 1, "burst,reorder", "all", "on", false, "-seed 2 -runs 1 -profile burst,reorder"},
		{4, 2, "all", "reorder", "on", false, "-seed 4 -runs 2 -fault reorder"},
		{5, 1, "none", "none", "on", true, "-seed 5 -runs 1 -profile none -fault none -short"},
		{6, 1, "all", "all", "only", true, "-seed 6 -runs 1 -churn only -short"},
		{8, 1, "all", "all", "off", false, "-seed 8 -runs 1 -churn off"},
	}
	for _, c := range cases {
		if got := replayFlags(c.seed, c.runs, c.profiles, c.faults, c.churn, c.short); got != c.want {
			t.Errorf("replayFlags(%d,%d,%q,%q,%q,%v) = %q, want %q", c.seed, c.runs, c.profiles, c.faults, c.churn, c.short, got, c.want)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	if code := run([]string{"-profile", "bogus"}, os.Stdout); code != 2 {
		t.Errorf("bad profile: exit %d, want 2", code)
	}
	if code := run([]string{"-nope"}, os.Stdout); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestRunSingleReplay executes exactly one fabric run through the real CLI
// path — the replay workflow a failing seed prints.
func TestRunSingleReplay(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if code := run([]string{"-short", "-run", "0"}, devnull); code != 0 {
		t.Errorf("replay of run 0 failed with exit %d", code)
	}
}
