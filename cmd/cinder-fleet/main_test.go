package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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

// fleetCmd returns a command that runs cinder-fleet with args.
func fleetCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CINDER_FLEET_RUN_MAIN=1")
	return cmd
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
		out, err := fleetCmd(append([]string{"-reference", "-devices", "4", "-duration", "1s"}, args...)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-reference is single-process") {
			t.Errorf("%v: exit %v, output %q; want a refusal naming -reference", args, err, out)
		}
	}
}

// TestIgnoredFlagCombinationsRefused: a flag the chosen mode would
// silently drop is an error naming both flags, before any simulation
// starts. -merge reads the run's identity from the partials, so it
// refuses the run flags too.
func TestIgnoredFlagCombinationsRefused(t *testing.T) {
	for _, tc := range []struct {
		args        []string
		mode, other string
	}{
		{[]string{"-shard", "0/2", "-sweep", "battery-j=100"}, "-shard", "-sweep"},
		{[]string{"-shard", "0/2", "-json"}, "-shard", "-json"},
		{[]string{"-merge", "-sweep", "battery-j=100", "part0.json"}, "-merge", "-sweep"},
		{[]string{"-merge", "-shard", "0/2", "part0.json"}, "-merge", "-shard"},
		{[]string{"-merge", "-shards", "2", "part0.json"}, "-merge", "-shards"},
		{[]string{"-merge", "-runners", "2", "part0.json"}, "-merge", "-runners"},
		{[]string{"-merge", "-checkpoint-dir", "ckpt", "part0.json"}, "-merge", "-checkpoint-dir"},
		{[]string{"-merge", "-resume", "part0.json"}, "-merge", "-resume"},
		{[]string{"-merge", "-seed", "3", "p.json"}, "-merge", "-seed"},
		{[]string{"-merge", "-per-device", "p.json"}, "-merge", "-per-device"},
		{[]string{"-runner", "http://127.0.0.1:1", "-o", "x"}, "-runner", "-o"},
		{[]string{"-runner", "http://127.0.0.1:1", "-devices", "5"}, "-runner", "-devices"},
		{[]string{"-sweep", "battery-j=100", "-o", "x"}, "-sweep", "-o"},
		{[]string{"-sweep", "battery-j=100", "-battery-j", "5"}, "-sweep", "-battery-j"},
	} {
		out, err := fleetCmd(tc.args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.mode) || !strings.HasSuffix(string(out), " "+tc.other+"\n") {
			t.Errorf("%v: exit %v, output %q; want a refusal naming %s and %s", tc.args, err, out, tc.mode, tc.other)
		}
	}
}

// TestShardsMatchesSingleProcess: -shards 4 -runners 2 runs the
// coordinator/runner stack over an HTTP loopback and must print the
// plain single-process run's JSON report byte for byte, with -progress
// on.
func TestShardsMatchesSingleProcess(t *testing.T) {
	base := []string{"-devices", "40", "-duration", "6h", "-scenario", "dayinthelife", "-workers", "2", "-json"}
	plain, err := fleetCmd(base...).Output()
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	// -progress drives the shared progress line from both runner
	// loops; the line goes to stderr, so stdout must still match.
	sharded, err := fleetCmd(append(base, "-shards", "4", "-runners", "2", "-progress")...).Output()
	if err != nil {
		t.Fatalf("-shards run: %v", err)
	}
	if !bytes.Equal(plain, sharded) {
		t.Fatalf("-shards 4 -runners 2 diverged from the single-process report:\n%s\nvs\n%s", sharded, plain)
	}
}

// TestMergeFilesMatchesSingleProcess: two -shard partials written to
// files and combined with -merge print the plain single-process JSON
// report byte for byte. The merge reads the run's identity, scenario
// included, from the partials alone.
func TestMergeFilesMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-devices", "40", "-duration", "6h", "-scenario", "dayinthelife", "-battery-j", "2000", "-workers", "2"}
	plain, err := fleetCmd(append(base, "-json")...).Output()
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	var parts []string
	for _, shard := range []string{"0/2", "1/2"} {
		path := filepath.Join(dir, "part"+strings.ReplaceAll(shard, "/", "of")+".json")
		if out, err := fleetCmd(append(base, "-shard", shard, "-o", path)...).CombinedOutput(); err != nil {
			t.Fatalf("-shard %s: %v\n%s", shard, err, out)
		}
		parts = append(parts, path)
	}
	merged, err := fleetCmd(append([]string{"-merge", "-json"}, parts...)...).Output()
	if err != nil {
		t.Fatalf("-merge: %v", err)
	}
	if !bytes.Equal(plain, merged) {
		t.Fatalf("-merge of the shard files diverged from the single-process report:\n%s\nvs\n%s", merged, plain)
	}
}

// TestShardCheckpointResume: -shard keeps its checkpoint behaviour
// through the job that makes the shard's config. Its epoch files keep
// their per-shard names, a rerun with -resume over them writes a
// byte-identical partial, and a strict -resume over an empty directory
// fails.
func TestShardCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	base := []string{"-devices", "9", "-seed", "13", "-duration", "72h", "-scenario", "weekinthelife",
		"-workers", "2", "-shard", "1/2", "-checkpoint-dir", ckpt}
	full, resumed := filepath.Join(dir, "full.json"), filepath.Join(dir, "resumed.json")
	if out, err := fleetCmd(append(base, "-o", full)...).CombinedOutput(); err != nil {
		t.Fatalf("checkpointed shard: %v\n%s", err, out)
	}
	if names, _ := filepath.Glob(filepath.Join(ckpt, "epoch-0001.shard-1-of-2.bin")); len(names) != 1 {
		t.Fatalf("checkpointed shard left no per-shard epoch file epoch-0001.shard-1-of-2.bin")
	}
	if out, err := fleetCmd(append(base, "-resume", "-o", resumed)...).CombinedOutput(); err != nil {
		t.Fatalf("resumed shard: %v\n%s", err, out)
	}
	a, err1 := os.ReadFile(full)
	b, err2 := os.ReadFile(resumed)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed shard partial diverged:\n%s\nvs\n%s", b, a)
	}

	empty := append(base[:len(base)-1:len(base)-1], t.TempDir(), "-resume")
	out, err := fleetCmd(empty...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "no complete epoch file") {
		t.Fatalf("-resume over an empty dir: exit %v, output %q; want a refusal", err, out)
	}
}
