package netd

// Differential and fuzz coverage for closed-form sweep settlement. The
// oracle is exactness: a cooperative-pooling scenario must produce
// byte-identical observable state whether sweeps are accounted in
// closed form (production) or the reference configuration walks every
// tick and executes every sweep. Scenarios are decoded from byte strings
// so the same generator feeds both the fixed differential test and the
// fuzzer, which mutates waiter arrival/departure timing and tap rates
// freely.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/units"
)

// cursor yields scenario parameters from a fuzz byte string, cycling so
// short inputs still decode to a complete scenario.
type cursor struct {
	data []byte
	i    int
}

func (c *cursor) next() byte {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[c.i%len(c.data)]
	c.i++
	return b
}

type pollerSpec struct {
	rate     units.Power
	interval units.Time
	phase    units.Time
	req      Request
}

type rateChange struct {
	at     units.Time
	poller int
	rate   units.Power
}

// linkSpec is a debtor reserve tapped into one poller's reserve. The
// tap first draws proportionally on the debtor in debt, which leaves
// the tap a negative carry; at the switch the debtor is paid back into
// credit and the tap turns constant, carrying that negative carry into
// the waiter's inflow.
type linkSpec struct {
	into int // the poller whose reserve the tap feeds
	debt units.Energy
	frac core.PPM
	at   units.Time // the switch
	rate units.Power
}

type scenario struct {
	pollers []pollerSpec
	changes []rateChange
	chunks  []units.Time
	link    *linkSpec
	probe   units.Time
}

// decodeScenario maps fuzz bytes onto 1–3 pollers (rate, period, phase,
// request shape), up to 3 mid-run tap-rate changes — including to zero,
// which strands the waiters with no inflow — and three run chunks whose
// boundaries force a settlement sync at arbitrary instants. Six more
// bytes past those the scenario read, never cycled, add a link and set
// the probe period (500 ms otherwise); every shorter input decodes as
// it did before links existed.
func decodeScenario(data []byte) scenario {
	c := &cursor{data: data}
	var sc scenario
	n := 1 + int(c.next()%3)
	for i := 0; i < n; i++ {
		sc.pollers = append(sc.pollers, pollerSpec{
			rate:     units.Milliwatts(float64(20 + 10*int(c.next()%18))),
			interval: units.Time(5+int(c.next()%56)) * units.Second,
			phase:    units.Time(c.next()%8) * units.Second,
			req: Request{
				ReqBytes:  200 + 100*int(c.next()%8),
				RespBytes: 500 + 400*int(c.next()%8),
				Exchanges: 1 + int(c.next()%3),
			},
		})
	}
	nc := int(c.next() % 4)
	for i := 0; i < nc; i++ {
		sc.changes = append(sc.changes, rateChange{
			at:     units.Time(1+int(c.next()%180)) * units.Second,
			poller: int(c.next()) % n,
			rate:   units.Milliwatts(float64(10 * int(c.next()%25))),
		})
	}
	for i := 0; i < 3; i++ {
		sc.chunks = append(sc.chunks, units.Time(15+int(c.next()%90))*units.Second)
	}
	sc.probe = 500 * units.Millisecond
	if rest := data[min(c.i, len(data)):]; len(rest) >= 6 {
		sc.link = &linkSpec{
			into: int(rest[0]) % n,
			debt: units.Energy(rest[1]) * 10 * units.Millijoule,
			frac: core.PPM(250 * (1 + int(rest[2]%8))),
			at:   units.Time(rest[3]) * 50 * units.Millisecond,
			rate: units.Power(1+int(rest[4]%10)) * units.Microwatt,
		}
		sc.probe = units.Time(1+int(rest[5]%60)) * 10 * units.Millisecond
	}
	return sc
}

// chunkState is the observable device state at a chunk boundary, with
// the pool and reserve levels the probe saw since the previous one.
// SettledSweeps is zeroed before comparison: it is the one counter the
// reference and production legitimately disagree on.
type chunkState struct {
	now      units.Time
	done     []int
	levels   []units.Energy
	pool     units.Energy
	fund     units.Energy
	battery  units.Energy
	consumed units.Energy
	waiting  int
	stats    Stats
	probes   []probeState
}

// probeState is what the probe saw at one of its instants.
type probeState struct {
	now    units.Time
	pool   units.Energy
	levels []units.Energy
}

// newRigMode builds a rig on a kernel and radio of the given
// configurations; the radio's profile is the kernel's.
func newRigMode(t testing.TB, kcfg kernel.Config, rcfg radio.Config, cfg Config) *rig {
	t.Helper()
	k := kernel.New(kcfg)
	rcfg.Profile = k.Profile
	r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), rcfg)
	k.AddDevice(r)
	n, err := New(k, r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, radio: r, netd: n}
}

// runScenario executes sc on one rig — the reference configuration or
// production — and returns the state at every chunk boundary. A probe
// (every sc.probe) records the pool and reserve levels on both rigs,
// and on the production rig asserts mid-run properties the chunk
// comparison cannot see:
//
//   - the predicted fire instant is strictly in the future, on the
//     sweep grid, and ahead of lastSweep, which itself never rewinds
//     (prediction values may legitimately move in either direction:
//     predictFire is conservative-early and re-predicts after a
//     non-firing boundary);
//   - no overshoot: while callers wait, the pool stays below the fire
//     threshold plus at most one sweep period of inflow — a later
//     crossing would have fired at its boundary.
//
// The probe task executes on both rigs so the two register identical
// task lists.
//
// Each chunk boundary also checks conservation: the battery's initial
// charge equals battery + app reserves + pool + radio fund + consumed,
// exactly, in integer microjoules.
func runScenario(t testing.TB, reference bool, sc scenario) []chunkState {
	t.Helper()
	r := newRigMode(t,
		kernel.Config{Seed: 7, DecayHalfLife: -1, Reference: reference},
		radio.Config{}, Config{Cooperative: true})
	kp := r.k.KernelPriv()

	var (
		taps  []*core.Tap
		ress  []*core.Reserve
		dones []*int
	)
	for i, p := range sc.pollers {
		res, tap, done := r.addPollerWithTap(t, fmt.Sprintf("poller%d", i), p.rate, p.interval, p.phase, p.req)
		taps, ress, dones = append(taps, tap), append(ress, res), append(dones, done)
	}
	for _, ch := range sc.changes {
		ch := ch
		r.k.Eng.At(ch.at, func(*sim.Engine) {
			if err := taps[ch.poller].SetRate(kp, ch.rate); err != nil {
				t.Errorf("setrate: %v", err)
			}
		})
	}
	// held lists every reserve conservation counts besides the pool,
	// fund and battery.
	held := ress
	// maxRate bounds one boundary's pool inflow for the overshoot
	// check: decodeScenario never hands a tap more than 240 mW.
	maxRate := units.Milliwatts(float64(240 * len(sc.pollers)))
	if l := sc.link; l != nil {
		debtor := r.k.CreateReserveOpts(r.k.Root, "debtor", label.Public(), core.ReserveOpts{AllowDebt: true})
		if err := debtor.DebitSelf(kp, l.debt); err != nil {
			t.Fatal(err)
		}
		link, err := r.k.CreateTap(r.k.Root, "link", kp, debtor, ress[l.into], label.Public())
		if err != nil {
			t.Fatal(err)
		}
		if err := link.SetFrac(kp, l.frac); err != nil {
			t.Fatal(err)
		}
		r.k.Eng.At(l.at, func(*sim.Engine) {
			if err := link.SetRate(kp, l.rate); err != nil {
				t.Errorf("link setrate: %v", err)
			}
			if err := r.k.Graph.Transfer(kp, r.k.Battery(), debtor, l.debt+units.Joule); err != nil {
				t.Errorf("pay debtor: %v", err)
			}
		})
		held = append(held[:len(held):len(held)], debtor)
		maxRate += l.rate
	}

	var probes []probeState
	var lastSweepSeen units.Time
	r.k.Eng.Every("probe", sc.probe, func(e *sim.Engine) {
		p := probeState{now: e.Now()}
		var err error
		if p.pool, err = r.netd.pool.Level(kp); err != nil {
			t.Errorf("pool level: %v", err)
		}
		for _, res := range held {
			lvl, err := res.Level(kp)
			if err != nil {
				t.Errorf("reserve level: %v", err)
			}
			p.levels = append(p.levels, lvl)
		}
		probes = append(probes, p)
		if reference {
			return
		}
		now := e.Now()
		n := r.netd
		// Point-wise monotonicity of the predicted instant itself is NOT
		// an invariant: predictFire is deliberately conservative-early
		// (an early boundary fires, re-checks, re-predicts later), and
		// refinements from later base states tighten it earlier. What
		// the machinery does guarantee: the prediction is strictly in
		// the future, on the sweep grid, ahead of the last accounted
		// boundary — and lastSweep itself never rewinds.
		if n.def.Standing() {
			predicted := n.sweepTask.NextDue()
			if predicted <= now {
				t.Errorf("t=%v: predicted fire %v is not in the future", now, predicted)
			}
			if predicted%SweepPeriod != 0 {
				t.Errorf("t=%v: predicted fire %v is off the sweep grid", now, predicted)
			}
			if predicted <= n.lastSweep {
				t.Errorf("t=%v: predicted fire %v not ahead of lastSweep %v", now, predicted, n.lastSweep)
			}
		}
		if n.lastSweep < lastSweepSeen {
			t.Errorf("t=%v: lastSweep rewound %v -> %v", now, lastSweepSeen, n.lastSweep)
		}
		lastSweepSeen = n.lastSweep
		if len(n.waiters) > 0 {
			lvl, err := n.pool.Level(kp)
			if err != nil {
				t.Errorf("pool level: %v", err)
				return
			}
			if thr := n.threshold(now); lvl >= thr+maxRate.Over(SweepPeriod) {
				t.Errorf("t=%v: pool overshoot: level %v >= threshold %v with %d waiters",
					now, lvl, thr, len(n.waiters))
			}
		}
	})

	battery0, err := r.k.Battery().Level(kp)
	if err != nil {
		t.Fatalf("battery level: %v", err)
	}
	var out []chunkState
	for _, d := range sc.chunks {
		r.k.Run(d)
		st := chunkState{
			now:      r.k.Now(),
			consumed: r.k.Consumed(),
			waiting:  len(r.netd.waiters),
			stats:    r.netd.Stats(),
			probes:   probes,
		}
		probes = nil
		st.stats.SettledSweeps = 0
		total := st.consumed
		for _, dn := range dones {
			st.done = append(st.done, *dn)
		}
		for _, res := range held {
			lvl, err := res.Level(kp)
			if err != nil {
				t.Fatalf("reserve level: %v", err)
			}
			st.levels = append(st.levels, lvl)
			total += lvl
		}
		if st.pool, err = r.netd.pool.Level(kp); err != nil {
			t.Fatalf("pool level: %v", err)
		}
		if st.fund, err = r.radio.FundingReserve().Level(kp); err != nil {
			t.Fatalf("fund level: %v", err)
		}
		if st.battery, err = r.k.Battery().Level(kp); err != nil {
			t.Fatalf("battery level: %v", err)
		}
		total += st.pool + st.fund + st.battery
		if total != battery0 {
			t.Errorf("t=%v: conservation violated: battery+reserves+consumed = %d µJ, started with %d µJ",
				st.now, total, battery0)
		}
		out = append(out, st)
	}
	return out
}

// diffStates compares two runs chunk by chunk and returns a description
// of the first divergence, or "".
func diffStates(a, b []chunkState) string {
	if len(a) != len(b) {
		return fmt.Sprintf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		pa, pb := a[i].probes, b[i].probes
		for j := range min(len(pa), len(pb)) {
			if fmt.Sprintf("%+v", pa[j]) != fmt.Sprintf("%+v", pb[j]) {
				return fmt.Sprintf("chunk %d, probe %d:\n  a: %+v\n  b: %+v", i, j, pa[j], pb[j])
			}
		}
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			return fmt.Sprintf("chunk %d:\n  a: %+v\n  b: %+v", i, a[i], b[i])
		}
	}
	return ""
}

// fuzzSeeds are shared by the differential test and FuzzPoolSettle's seed
// corpus: the zero scenario, a single slow poller, a three-poller mix
// with rate changes, a sequence that drives a tap to zero mid-wait, and
// a 20 mW poller whose reserve a 1 µW link feeds with a negative carry
// (1000 PPM on a −1.23 J debtor, switched at 0.75 s, probed every 130 ms).
var fuzzSeeds = [][]byte{
	{},
	{0, 3, 17, 2, 1, 4, 1, 0},
	{2, 7, 40, 1, 3, 2, 2, 16, 55, 0, 5, 6, 1, 3, 30, 2, 2, 9, 60, 1, 12, 0, 80, 2, 24, 40, 70, 10},
	{1, 0, 10, 0, 2, 3, 3, 1, 20, 0, 0, 50, 80, 20},
	{0, 0, 25, 1, 0, 1, 0, 0, 5, 5, 5, 0, 123, 3, 15, 0, 12},
}

// TestPoolSettleDifferential runs each seed scenario under the
// reference configuration and the closed-form settlement path and
// requires identical observable state at every chunk boundary.
func TestPoolSettleDifferential(t *testing.T) {
	for i, seed := range fuzzSeeds {
		sc := decodeScenario(seed)
		ref := runScenario(t, true, sc)
		closed := runScenario(t, false, sc)
		if d := diffStates(ref, closed); d != "" {
			t.Errorf("scenario %d: reference vs closed-form: %s", i, d)
		}
	}
}

// FuzzPoolSettle drives reference and closed-form rigs through the same
// fuzz-decoded scenario and requires identical chunk states, alongside
// the mid-run probe invariants (future-only predictions, monotonicity
// absent new information, no pool overshoot, conservation).
func FuzzPoolSettle(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScenario(data)
		ref := runScenario(t, true, sc)
		closed := runScenario(t, false, sc)
		if d := diffStates(ref, closed); d != "" {
			t.Fatalf("reference vs closed-form diverged: %s", d)
		}
	})
}
