package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/snap"
	"repro/internal/units"
)

// FuzzSettle interprets the fuzz input as a little program over a random
// graph of constant/proportional taps and reserves — create, rewire,
// mutate rates, transfer, release, and drive debt-allowed reserves
// negative with DebitSelf — executed in lockstep on a per-batch oracle
// and a closed-form-settled subject. After every advance it asserts:
//
//   - byte-identical state (levels, carries, stats) between the two;
//   - exact energy conservation on both
//     (battery + Σ reserves + consumed == capacity);
//   - no reserve that does not allow debt overshoots past zero;
//   - horizon monotonicity: settling j batches shrinks the reported
//     depletion horizon by at most j;
//   - replay memo exactness: each advance settles from the same start
//     state with a cold memo, with the memo that pass filled, with a
//     memo another graph filled running the same program, and with the
//     memo the whole program filled, and all four passes match the
//     oracle. The other graph is the cross-device case, a fleet
//     worker's next device: its taps are built after one extra tap, so
//     no tap has the creation sequence number of its counterpart here.
//
// Op bytes 0xE0 and above are the debt ops (even: a new debt-allowed
// reserve, odd: DebitSelf); the rest select one of seven ops by op % 7.
func FuzzSettle(f *testing.F) {
	f.Add([]byte{0, 10, 0, 1, 0x20, 3, 5, 50, 2, 1, 0x10, 5, 20})
	f.Add([]byte{0, 255, 255, 1, 0xFF, 200, 5, 10, 0, 1, 1, 2, 0x01, 100, 5, 200, 5, 255})
	f.Add([]byte{6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// A debt-allowed reserve, fed by a constant tap, debited into the
	// red and then drained by a proportional tap: the replay loop sees
	// a negative source level and carry.
	f.Add([]byte{0xE0, 0x00, 0x10, 1, 0x10, 0x00, 0x10, 0xE1, 0x01, 0xFF, 0xFF, 2, 0x01, 0x20, 0xA1, 6, 63, 6, 20})

	f.Fuzz(func(t *testing.T, data []byte) {
		other := runSettleProgram(t, data, nil)
		runSettleProgram(t, data, other)
	})
}

// runSettleProgram runs FuzzSettle's program over data and returns the
// memo its subject filled. With other nil it is that other graph's run:
// it builds one extra tap first and skips the pass with another graph's
// memo.
func runSettleProgram(t *testing.T, data []byte, other *replayMemo) *replayMemo {
	const battery = units.Joule
	const dt = settleDT
	build := func() (*Graph, *kobj.Container) {
		g, root := newSettleGraph(battery)
		if other == nil {
			spare := g.NewReserve(root, "spare", label.Public(), ReserveOpts{})
			if _, err := g.NewTap(root, "spare", label.Priv{}, g.Battery(), spare, label.Public()); err != nil {
				t.Fatal(err)
			}
		}
		return g, root
	}
	og, oroot := build()
	sg, sroot := build()
	if other == nil {
		sg.memo = newReplayMemo()
	}
	obill := &baselineBiller{g: og, power: units.Milliwatts(699)}
	sbill := &baselineBiller{g: sg, power: units.Milliwatts(699)}

	var coldMemo *replayMemo
	var ores, sres []*Reserve
	var otaps, staps []*Tap
	ores = append(ores, og.Battery())
	sres = append(sres, sg.Battery())

	next := func(i *int) (byte, bool) {
		if *i >= len(data) {
			return 0, false
		}
		b := data[*i]
		*i++
		return b, true
	}
	next16 := func(i *int) (uint16, bool) {
		if *i+1 >= len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint16(data[*i:])
		*i += 2
		return v, true
	}

	check := func(tag string) {
		t.Helper()
		os, ss := graphState(og), graphState(sg)
		if os != ss {
			t.Fatalf("%s: settled state diverged from oracle:\n--- oracle ---\n%s--- settled ---\n%s", tag, os, ss)
		}
		for _, g := range []*Graph{og, sg} {
			if g.ConservationError() != 0 {
				t.Fatalf("%s: conservation violated by %v", tag, g.ConservationError())
			}
			for _, r := range g.reserves {
				if r.level < 0 && !r.allowDebt {
					t.Fatalf("%s: reserve %s overshot to %d µJ", tag, r.name, r.level)
				}
			}
		}
	}

	count := 0
	for i := 0; i < len(data); {
		op, ok := next(&i)
		if !ok {
			break
		}
		count++
		if count > 200 {
			break // bound runtime
		}
		if op >= 0xE0 && op&1 == 0 { // new debt-allowed reserve, funded from the battery
			amt, ok := next16(&i)
			if !ok {
				return sg.memo
			}
			fund := units.Energy(amt) * 20
			or := og.NewReserve(oroot, "d", label.Public(), ReserveOpts{AllowDebt: true})
			sr := sg.NewReserve(sroot, "d", label.Public(), ReserveOpts{AllowDebt: true})
			_ = og.Transfer(label.Priv{}, og.Battery(), or, fund)
			_ = sg.Transfer(label.Priv{}, sg.Battery(), sr, fund)
			ores = append(ores, or)
			sres = append(sres, sr)
			continue
		}
		if op >= 0xE0 { // DebitSelf, into debt where the reserve allows it
			a, ok1 := next(&i)
			amt, ok2 := next16(&i)
			if !ok1 || !ok2 {
				return sg.memo
			}
			ri := int(a) % len(ores)
			if ores[ri].dead || sres[ri].dead {
				continue
			}
			e1 := ores[ri].DebitSelf(label.Priv{}, units.Energy(amt)*20)
			e2 := sres[ri].DebitSelf(label.Priv{}, units.Energy(amt)*20)
			if (e1 == nil) != (e2 == nil) {
				t.Fatal("twin DebitSelf diverged")
			}
			continue
		}
		switch op % 7 {
		case 0: // new reserve, funded from the battery
			amt, ok := next16(&i)
			if !ok {
				return sg.memo
			}
			fund := units.Energy(amt) * 20 // up to ≈1.3 mJ... scaled below battery
			or := og.NewReserve(oroot, "r", label.Public(), ReserveOpts{})
			sr := sg.NewReserve(sroot, "r", label.Public(), ReserveOpts{})
			_ = og.Transfer(label.Priv{}, og.Battery(), or, fund)
			_ = sg.Transfer(label.Priv{}, sg.Battery(), sr, fund)
			ores = append(ores, or)
			sres = append(sres, sr)
		case 1: // new constant tap
			a, ok1 := next(&i)
			rate, ok2 := next16(&i)
			if !ok1 || !ok2 {
				return sg.memo
			}
			si := int(a) % len(ores)
			di := int(a>>4) % len(ores)
			if si == di || ores[si].dead || ores[di].dead || sres[si].dead || sres[di].dead {
				continue
			}
			ot, err1 := og.NewTap(oroot, "t", label.Priv{}, ores[si], ores[di], label.Public())
			st, err2 := sg.NewTap(sroot, "t", label.Priv{}, sres[si], sres[di], label.Public())
			if (err1 == nil) != (err2 == nil) {
				t.Fatal("twin tap creation diverged")
			}
			if err1 != nil {
				continue
			}
			_ = ot.SetRate(label.Priv{}, units.Power(rate)*7)
			_ = st.SetRate(label.Priv{}, units.Power(rate)*7)
			otaps = append(otaps, ot)
			staps = append(staps, st)
		case 2: // new proportional tap
			a, ok1 := next(&i)
			frac, ok2 := next16(&i)
			if !ok1 || !ok2 {
				return sg.memo
			}
			si := int(a) % len(ores)
			di := int(a>>4) % len(ores)
			if si == di || ores[si].dead || ores[di].dead || sres[si].dead || sres[di].dead {
				continue
			}
			ot, err1 := og.NewTap(oroot, "f", label.Priv{}, ores[si], ores[di], label.Public())
			st, err2 := sg.NewTap(sroot, "f", label.Priv{}, sres[si], sres[di], label.Public())
			if (err1 == nil) != (err2 == nil) {
				t.Fatal("twin tap creation diverged")
			}
			if err1 != nil {
				continue
			}
			ppm := PPM(frac) % 1_000_001
			_ = ot.SetFrac(label.Priv{}, ppm)
			_ = st.SetFrac(label.Priv{}, ppm)
			otaps = append(otaps, ot)
			staps = append(staps, st)
		case 3: // mutate a tap's rate or fraction
			a, ok1 := next(&i)
			v, ok2 := next16(&i)
			if !ok1 || !ok2 || len(otaps) == 0 {
				continue
			}
			ti := int(a) % len(otaps)
			if a&0x80 != 0 {
				ppm := PPM(v) % 1_000_001
				_ = otaps[ti].SetFrac(label.Priv{}, ppm)
				_ = staps[ti].SetFrac(label.Priv{}, ppm)
			} else {
				_ = otaps[ti].SetRate(label.Priv{}, units.Power(v)*3)
				_ = staps[ti].SetRate(label.Priv{}, units.Power(v)*3)
			}
		case 4: // release a tap
			a, ok1 := next(&i)
			if !ok1 || len(otaps) == 0 {
				continue
			}
			ti := int(a) % len(otaps)
			_ = og.table.Delete(otaps[ti].ObjectID())
			_ = sg.table.Delete(staps[ti].ObjectID())
		case 5: // transfer between reserves
			a, ok1 := next(&i)
			amt, ok2 := next16(&i)
			if !ok1 || !ok2 {
				return sg.memo
			}
			si := int(a) % len(ores)
			di := int(a>>4) % len(ores)
			if si == di || ores[si].dead || ores[di].dead || sres[si].dead || sres[di].dead {
				continue
			}
			_, _ = og.TransferUpTo(label.Priv{}, ores[si], ores[di], units.Energy(amt))
			_, _ = sg.TransferUpTo(label.Priv{}, sres[si], sres[di], units.Energy(amt))
		case 6: // advance n batches, checking horizon monotonicity
			a, ok1 := next(&i)
			if !ok1 {
				return sg.memo
			}
			n := int64(a%64) + 1
			extra := units.Milliwatts(699)
			h0 := sg.HorizonBatches(dt, extra)
			for j := int64(0); j < n; j++ {
				og.Flow(dt)
				obill.bill(1)
			}
			// Settle the advance from the same start state: with a
			// cold replay memo, with the memo that pass filled, with
			// the memo the other graph's run filled, and with the memo
			// every earlier advance of the program filled (whose plan
			// versions must have seen each mutation since).
			start, err := snap.Save(sg.Codec)
			if err != nil {
				t.Fatal(err)
			}
			billCarry := sbill.carry
			history := sg.memo
			if coldMemo == nil {
				coldMemo = newReplayMemo()
			}
			coldMemo.forget()
			sg.memo = coldMemo
			sg.SettleFlows(dt, n, extra, sbill.bill)
			check("after cold advance")
			cold := graphState(sg)
			passes := []*replayMemo{coldMemo, history}
			if other != nil {
				passes = []*replayMemo{coldMemo, other, history}
			}
			for pass, memo := range passes {
				if err := snap.Load(start, sg.Codec); err != nil {
					t.Fatal(err)
				}
				sbill.carry = billCarry
				sg.memo = memo
				sg.SettleFlows(dt, n, extra, sbill.bill)
				if got := graphState(sg); got != cold {
					t.Fatalf("replay memo pass %d diverged from the cold pass:\n--- cold ---\n%s--- pass %d ---\n%s", pass+1, cold, pass+1, got)
				}
			}
			h1 := sg.HorizonBatches(dt, extra)
			// Monotone up to one batch of slack for the interleaved
			// drain's sub-µJ carry (see HorizonBatches).
			if h0 > 0 && h1 < h0-n-1 {
				t.Fatalf("horizon not monotone: settled %d batches, horizon fell %d → %d", n, h0, h1)
			}
			check("after advance")
		}
	}
	// Final state must agree even if the program ended mid-op.
	check("final")
	return sg.memo
}
