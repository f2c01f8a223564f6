package msm

import "repro/internal/snap"

// This file implements checkpoint/resume for the baseband path. A
// savable baseband has no call up, no GPS session, and no message in
// flight across the shared memory; what survives a checkpoint is pure
// accounting — smdd's counters and sequence number — plus the billing
// carries. smdd's pending reply table may hold inert entries (a dial's
// reply record is kept until hangup and never reclaimed); those are
// dropped: no future message can carry an old sequence number, so they
// are unreachable by construction.

// Codec saves or restores smdd and its ARM9 model. A save or a load
// mid-call, mid-GPS-session or with shared-memory messages in flight
// fails: that state references threads and reserves the load cannot
// reattach.
func (d *Smdd) Codec(c *snap.Codec) {
	c.Section("smdd")
	snap.Uint(c, &d.seq)
	snap.Int(c, &d.stats.SMSSent)
	snap.Int(c, &d.stats.CallsPlaced)
	snap.Int(c, &d.callCarry)
	snap.Int(c, &d.gpsCarry)
	snap.Uint(c, &d.arm9.call)
	c.Bool(&d.arm9.gpsOn)
	inFlight := len(d.sm.toApps)
	snap.Uint(c, &inFlight)
	switch {
	case d.arm9.call != CallIdle:
		c.Failf("msm: voice call %v; calls cannot span a checkpoint", d.arm9.call)
	case d.arm9.gpsOn:
		c.Failf("msm: GPS engine on; GPS sessions cannot span a checkpoint")
	case inFlight > 0:
		c.Failf("msm: %d undrained shared-memory messages", inFlight)
	}
	if !c.Loading() {
		return
	}
	d.callBill = nil
	d.gpsBill = nil
	clear(d.pend)
}
