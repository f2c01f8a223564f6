package netd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/units"
)

// rig wires a kernel, radio, and netd together with one polling app.
type rig struct {
	k     *kernel.Kernel
	radio *radio.Radio
	netd  *Netd
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	return newRigMode(t, kernel.Config{Seed: 7, DecayHalfLife: -1}, radio.Config{}, cfg)
}

// addPoller spawns a thread that polls via the netd gate every interval,
// funded by a tap at the given rate. It returns the app's reserve and a
// counter of completed polls.
func (r *rig) addPoller(t *testing.T, name string, rate units.Power, interval units.Time, phase units.Time, req Request) (*core.Reserve, *int) {
	t.Helper()
	res, _, done := r.addPollerWithTap(t, name, rate, interval, phase, req)
	return res, done
}

// addPollerWithTap is addPoller exposing the funding tap, so the
// differential and fuzz harnesses can change its rate mid-run.
func (r *rig) addPollerWithTap(t testing.TB, name string, rate units.Power, interval units.Time, phase units.Time, req Request) (*core.Reserve, *core.Tap, *int) {
	t.Helper()
	res := r.k.CreateReserveOpts(r.k.Root, name, label.Public(), core.ReserveOpts{AllowDebt: true})
	tap, err := r.k.CreateTap(r.k.Root, name+"-tap", r.k.KernelPriv(), r.k.Battery(), res, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := tap.SetRate(r.k.KernelPriv(), rate); err != nil {
		t.Fatal(err)
	}
	done := new(int)
	var next units.Time = phase
	r.k.Spawn(r.k.Root, name, label.Priv{}, sched.RunnerFunc(
		func(now units.Time, th *sched.Thread) {
			if now < next {
				th.Sleep(next)
				return
			}
			next = now + interval
			rq := req
			userDone := rq.OnDone
			rq.OnDone = func(at units.Time) {
				*done++
				if userDone != nil {
					userDone(at)
				}
			}
			if _, err := r.k.GateCall(GateName, th, rq); err != nil {
				t.Errorf("poll: %v", err)
				th.Exit()
			}
		}), res)
	return res, tap, done
}

func TestUncooperativePollGoesStraightToRadio(t *testing.T) {
	r := newRig(t, Config{Cooperative: false})
	var doneAt units.Time
	_, done := r.addPoller(t, "rss", units.Milliwatts(99), 60*units.Second, units.Second,
		Request{ReqBytes: 100, RespBytes: 2000, OnDone: func(at units.Time) { doneAt = at }})
	r.k.Run(50 * units.Second)
	if *done != 1 {
		t.Fatalf("polls done = %d, want 1", *done)
	}
	if r.radio.Stats().Activations != 1 {
		t.Fatalf("activations = %d", r.radio.Stats().Activations)
	}
	// Served at once (radio wake-up plus transfer, 3.2 s): no wait for
	// a pool, which 99 mW would take about 120 s to fill.
	if doneAt > 5*units.Second {
		t.Fatalf("poll at 1 s done at %v", doneAt)
	}
}

func TestCooperativeBlocksUntilPoolFills(t *testing.T) {
	// One app with a 99 mW tap needs ≈120 s to accumulate the 11.875 J
	// threshold; its first poll must block, then complete.
	r := newRig(t, Config{Cooperative: true})
	_, done := r.addPoller(t, "mail", units.Milliwatts(99), 300*units.Second, units.Second,
		Request{ReqBytes: 100, RespBytes: 2000})
	r.k.Run(60 * units.Second)
	if *done != 0 {
		t.Fatal("poll completed before pool could fill")
	}
	if len(r.netd.waiters) != 1 {
		t.Fatalf("waiting = %d, want 1", len(r.netd.waiters))
	}
	if r.radio.Stats().Activations != 0 {
		t.Fatal("radio activated early")
	}
	r.k.Run(90 * units.Second) // ≈150 s total
	if *done != 1 {
		t.Fatalf("poll not completed after pool filled: done=%d", *done)
	}
	if r.radio.Stats().Activations != 1 {
		t.Fatalf("activations = %d", r.radio.Stats().Activations)
	}
	if r.netd.Stats().PowerUps != 1 {
		t.Fatalf("power-ups = %d", r.netd.Stats().PowerUps)
	}
}

func TestCooperativePoolingSynchronizesApps(t *testing.T) {
	// The §6.4 configuration: two pollers, each funded to activate the
	// radio alone every ~2 min, polling every 60 s with a 15 s stagger.
	// Pooled, the radio powers up about once per minute and both
	// proceed together.
	r := newRig(t, Config{Cooperative: true})
	rate := units.Milliwatts(99) // ≈11.875 J / 120 s
	_, rssDone := r.addPoller(t, "rss", rate, 60*units.Second, units.Second,
		Request{ReqBytes: 200, RespBytes: 4000})
	_, mailDone := r.addPoller(t, "mail", rate, 60*units.Second, 16*units.Second,
		Request{ReqBytes: 200, RespBytes: 4000})
	r.k.Run(20 * units.Minute)

	acts := r.radio.Stats().Activations
	// ≈1 activation per minute (the two apps' pooled 198 mW buys
	// 11.875 J per ~60 s); allow broad bounds for phase effects.
	if acts < 15 || acts > 22 {
		t.Fatalf("activations = %d over 20 min, want ≈20 (one per minute)", acts)
	}
	// Both apps make progress at a similar rate.
	if *rssDone < 14 || *mailDone < 14 {
		t.Fatalf("polls done rss=%d mail=%d, want ≥14 each", *rssDone, *mailDone)
	}
	diff := *rssDone - *mailDone
	if diff < -3 || diff > 3 {
		t.Fatalf("asymmetric progress: rss=%d mail=%d", *rssDone, *mailDone)
	}
	if r.k.Graph.ConservationError() != 0 {
		t.Fatalf("conservation error %v", r.k.Graph.ConservationError())
	}
}

func TestPoolNeverEmptiesAfterFirstFire(t *testing.T) {
	// Fig. 14: the 125 % threshold means the pool is debited by the
	// activation cost but retains the ≈25 % margin — it "does not empty
	// to 0" once cycling.
	r := newRigMode(t, kernel.Config{Seed: 7, DecayHalfLife: -1}, radio.Config{Trace: true}, Config{Cooperative: true})
	rate := units.Milliwatts(99)
	r.addPoller(t, "rss", rate, 60*units.Second, units.Second,
		Request{ReqBytes: 200, RespBytes: 4000})
	r.addPoller(t, "mail", rate, 60*units.Second, 16*units.Second,
		Request{ReqBytes: 200, RespBytes: 4000})
	r.k.Run(10 * units.Minute)

	ts := r.netd.PoolTrace()
	if len(ts.Points()) == 0 {
		t.Fatal("no pool samples")
	}
	// Peaks near the threshold (≈11.9 J), never back to zero after the
	// first firing.
	if peak := units.Energy(ts.Max()); peak < units.Joules(11) {
		t.Fatalf("pool max = %v, want ≳11.9 J", peak)
	}
	firstFire := false
	for _, p := range ts.Points() {
		if units.Energy(p.V) > units.Joules(11) {
			firstFire = true
		}
		if firstFire && p.V == 0 {
			t.Fatal("pool emptied to 0 after first firing")
		}
	}
	if !firstFire {
		t.Fatal("pool never reached threshold")
	}
}

func TestPoolProtectedFromApplications(t *testing.T) {
	r := newRig(t, Config{Cooperative: true})
	var app label.Priv
	if err := r.netd.pool.Consume(app, units.Microjoule); err == nil {
		t.Fatal("application consumed from netd pool")
	}
	// Direct observation is denied too (§3.5: even a failed consumption
	// reveals the level, so observe is part of the protection); netd
	// itself holds the category.
	if _, err := r.netd.pool.Level(app); err == nil {
		t.Fatal("application observed protected pool directly")
	}
	if _, err := r.netd.pool.Level(r.netd.priv); err != nil {
		t.Fatalf("netd cannot observe its own pool: %v", err)
	}
}

func TestMarginalCostsBilledToCallers(t *testing.T) {
	// §5.5.1/§5.5.2: per-packet costs land on the calling app's
	// reserve, including incoming bytes charged into debt.
	r := newRig(t, Config{Cooperative: true})
	rate := units.Milliwatts(200) // fast fill so the poll fires quickly
	res, done := r.addPoller(t, "app", rate, 300*units.Second, units.Second,
		Request{ReqBytes: 500, RespBytes: 8000})
	r.k.Run(2 * units.Minute)
	if *done != 1 {
		t.Fatalf("done = %d", *done)
	}
	st, err := res.Stats(label.Priv{})
	if err != nil {
		t.Fatal(err)
	}
	p := power.Dream()
	wantData := p.PacketEnergy(500) + p.PacketEnergy(8000)
	// Consumed covers CPU (small) + data; data dominates.
	if st.Consumed < wantData {
		t.Fatalf("app consumed %v, want ≥ %v of data cost", st.Consumed, wantData)
	}
}

func TestActiveRadioServedWithoutNewActivation(t *testing.T) {
	// A poll arriving while the radio is active only needs the small
	// idle-extension cost, so it proceeds immediately.
	r := newRig(t, Config{Cooperative: true})
	rate := units.Milliwatts(99)
	_, aDone := r.addPoller(t, "a", rate, 300*units.Second, units.Second,
		Request{ReqBytes: 100, RespBytes: 1000})
	_, bDone := r.addPoller(t, "b", rate, 300*units.Second, 125*units.Second,
		Request{ReqBytes: 100, RespBytes: 1000})
	// a fires around t≈120 s (needs 11.875 J at 99 mW); b polls at 125 s
	// while the radio is still active and should ride along.
	r.k.Run(135 * units.Second)
	if *aDone != 1 {
		t.Fatalf("a done = %d", *aDone)
	}
	if *bDone != 1 {
		t.Fatalf("b done = %d (should have ridden the active radio)", *bDone)
	}
	if acts := r.radio.Stats().Activations; acts != 1 {
		t.Fatalf("activations = %d, want 1", acts)
	}
}
