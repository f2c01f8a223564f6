package sim

import (
	"math/rand"
	"testing"

	"repro/internal/snap"
)

// streamSeeds covers zero, small, negative and wide seeds.
var streamSeeds = []int64{0, 1, 42, -7, 1 << 40}

// mixedDraws draws n values from r, cycling through the draw kinds the
// simulator uses. Intn and Int63n reject-and-redraw, so a mix also
// covers draws that advance the source more than once.
func mixedDraws(r *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = r.Int63()
		case 1:
			out[i] = int64(r.Uint64())
		case 2:
			out[i] = int64(r.Intn(1000))
		default:
			out[i] = r.Int63n(1<<40 + 7)
		}
	}
	return out
}

// reference returns the first skip+n mixed draws of an unwrapped
// math/rand generator, minus the first skip.
func reference(seed int64, skip, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	mixedDraws(r, skip)
	return mixedDraws(r, n)
}

func equalDraws(t *testing.T, what string, got, want []int64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: draw %d is %d, math/rand gives %d", what, i, got[i], want[i])
		}
	}
}

// TestRandStreamMatchesMathRand: the lazily seeded engine RNG is draw
// for draw the stream of rand.New(rand.NewSource(seed)), on a fresh
// engine and on a recycled one, and Reset after draws restarts it.
func TestRandStreamMatchesMathRand(t *testing.T) {
	const n = 64
	for _, seed := range streamSeeds {
		want := reference(seed, 0, n)

		fresh := NewEngineMode(seed, ModeNextEvent)
		equalDraws(t, "fresh engine", mixedDraws(fresh.Rand(), n), want)

		recycled := NewEngineMode(seed+1, ModeNextEvent)
		mixedDraws(recycled.Rand(), 3)
		recycled.Reset(seed, ModeNextEvent)
		equalDraws(t, "recycled engine", mixedDraws(recycled.Rand(), n), want)

		// Reset after draws restarts the stream at its first draw.
		recycled.Reset(seed, ModeNextEvent)
		equalDraws(t, "reset after draws", mixedDraws(recycled.Rand(), n), want)
	}
}

// TestRandStreamAcrossSnapshot: Reset, draw k values, save, load
// onto a recycled engine — the restored engine continues the stream
// exactly where the snapshot left it. A snapshot taken before any draw
// must restore without seeding the source.
func TestRandStreamAcrossSnapshot(t *testing.T) {
	const n = 32
	for _, seed := range streamSeeds {
		for _, k := range []int{0, 1, 17} {
			e := NewEngineMode(seed+1, ModeNextEvent)
			mixedDraws(e.Rand(), 5)
			e.Reset(seed, ModeNextEvent)
			mixedDraws(e.Rand(), k)
			b, err := snap.Save(e.Codec)
			if err != nil {
				t.Fatal(err)
			}

			restored := NewEngineMode(seed+2, ModeNextEvent)
			mixedDraws(restored.Rand(), 9)
			restored.Reset(seed, ModeNextEvent)
			if err := snap.Load(b, restored.Codec); err != nil {
				t.Fatalf("seed %d, %d draws: %v", seed, k, err)
			}
			if restored.src.draws != e.src.draws {
				t.Fatalf("seed %d: restored %d draws, snapshot has %d", seed, restored.src.draws, e.src.draws)
			}
			if k == 0 && restored.src.seeded {
				t.Fatalf("seed %d: a zero-draw restore seeded the source", seed)
			}
			equalDraws(t, "restored engine", mixedDraws(restored.Rand(), n), reference(seed, k, n))
		}
	}
}

// TestResetDoesNotSeed: Reset and NewEngine only record the seed; the
// math/rand source is created and seeded by the first draw.
func TestResetDoesNotSeed(t *testing.T) {
	e := NewEngineMode(3, ModeNextEvent)
	if e.src.src != nil || e.src.seeded {
		t.Fatal("NewEngine created or seeded the source before any draw")
	}
	e.Rand().Int63()
	if !e.src.seeded || e.src.draws != 1 {
		t.Fatalf("after one draw: seeded %v, draws %d", e.src.seeded, e.src.draws)
	}
	e.Reset(4, ModeNextEvent)
	if e.src.seeded || e.src.draws != 0 {
		t.Fatalf("after Reset: seeded %v, draws %d", e.src.seeded, e.src.draws)
	}
}
