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
		{"-shard", "1/2", "-o", "part1.json"},
		{"-runner", "http://127.0.0.1:1"},
		{"-runner", "http://127.0.0.1:1", "-runner-id", "r1"},
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
		{[]string{"-shard", "0/2", "-runner-id", "r1"}, "-shard", "-runner-id"},
		{[]string{"-shard", "0/2", "-json"}, "-shard", "-json"},
		{[]string{"-merge", "-per-device-out", "r.ndjson", "part0.json"}, "-merge", "-per-device-out"},
		{[]string{"-merge", "-shard", "0/2", "part0.json"}, "-merge", "-shard"},
		{[]string{"-merge", "-workers", "2", "part0.json"}, "-merge", "-workers"},
		{[]string{"-merge", "-progress", "part0.json"}, "-merge", "-progress"},
		{[]string{"-merge", "-checkpoint-dir", "ckpt", "part0.json"}, "-merge", "-checkpoint-dir"},
		{[]string{"-merge", "-resume", "part0.json"}, "-merge", "-resume"},
		{[]string{"-merge", "-seed", "3", "p.json"}, "-merge", "-seed"},
		{[]string{"-merge", "-runner-id", "r1", "p.json"}, "-merge", "-runner-id"},
		{[]string{"-runner", "http://127.0.0.1:1", "-o", "x"}, "-runner", "-o"},
		{[]string{"-runner", "http://127.0.0.1:1", "-devices", "5"}, "-runner", "-devices"},
		{[]string{"-runner", "http://127.0.0.1:1", "-merge"}, "-runner", "-merge"},
		{[]string{"-runner", "http://127.0.0.1:1", "-shard", "0/2"}, "-runner", "-shard"},
		{[]string{"-runner-id", "r1", "-o", "x"}, "a plain run", "-runner-id"},
		{[]string{"-battery-j", "5", "-runner-id", "r1"}, "a plain run", "-runner-id"},
	} {
		out, err := fleetCmd(tc.args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.mode) || !strings.HasSuffix(string(out), " "+tc.other+"\n") {
			t.Errorf("%v: exit %v, output %q; want a refusal naming %s and %s", tc.args, err, out, tc.mode, tc.other)
		}
	}
}

// TestMergeFilesMatchesSingleProcess: two -shard partials written to
// files and combined with -merge print the plain single-process JSON
// report byte for byte. The merge reads the run's identity, scenario
// included, from the partials alone. -progress rides the plain run and
// the shards: its line goes to stderr, so the reports must not change.
func TestMergeFilesMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-devices", "40", "-duration", "6h", "-scenario", "dayinthelife", "-battery-j", "2000", "-workers", "2"}
	plain, err := fleetCmd(append(base, "-json", "-progress")...).Output()
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	var parts []string
	for _, shard := range []string{"0/2", "1/2"} {
		path := filepath.Join(dir, "part"+strings.ReplaceAll(shard, "/", "of")+".json")
		if out, err := fleetCmd(append(base, "-shard", shard, "-progress", "-o", path)...).CombinedOutput(); err != nil {
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
