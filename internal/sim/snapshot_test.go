package sim

import (
	"strings"
	"testing"

	"repro/internal/snap"
)

// TestSaveRefusesEarliestMidRunEvent: a save with events scheduled after
// the build refuses, naming the earliest of them by (At, seq) however
// the heap holds them, and a save with none succeeds.
func TestSaveRefusesEarliestMidRunEvent(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	nop := func(*Engine) {}
	e.At(50, nop)
	e.MarkBuilt()
	if _, err := snap.Save(e.Codec); err != nil {
		t.Fatalf("save with only build-time events: %v", err)
	}
	e.At(90, nop) // seq 1
	e.At(70, nop) // seq 2
	e.At(70, nop) // seq 3
	e.At(80, nop) // seq 4
	_, err := snap.Save(e.Codec)
	want := "sim: pending event at 70 ms (seq 2) was scheduled mid-run, at or past the build's seq 1; " +
		"a restore cannot rebuild it"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("save error %v, want it to contain %q", err, want)
	}
}
