package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run the command itself: with
// CINDER_FLEET_RUN_MAIN set, the re-executed test binary is cinder-fleet.
func TestMain(m *testing.M) {
	if os.Getenv("CINDER_FLEET_RUN_MAIN") == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// TestReferenceRefusedWithShardingFlags: -reference is single-process,
// so every sharded or job entry point of the CLI refuses it, naming
// -reference, before any simulation starts.
func TestReferenceRefusedWithShardingFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-shard", "0/2"},
		{"-shards", "2"},
		{"-runners", "2"},
		{"-runner", "http://127.0.0.1:1"},
		{"-merge", "part0.json"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-reference", "-devices", "4", "-duration", "1s"}, args...)...)
		cmd.Env = append(os.Environ(), "CINDER_FLEET_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-reference is single-process") {
			t.Errorf("%v: exit %v, output %q; want a refusal naming -reference", args, err, out)
		}
	}
}
