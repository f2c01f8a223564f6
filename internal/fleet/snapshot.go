package fleet

import (
	"fmt"
	"math"

	"repro/internal/snap"
)

// This file declares the records of the fleet's epoch files, each as
// one field list run through a snap.Codec: a live device's state, a
// dead device's final result (with its Counters), and the epoch header
// (with the run's Identity).

// snapshotDevice serializes a device's complete state at a quiescent
// epoch boundary: engine clock and schedules, RNG position, object
// census, reserve levels, tap carries, scheduler accounting,
// radio/netd/baseband state and workload hook counters.
func snapshotDevice(d *Device) ([]byte, error) {
	if n := d.Netd.WaitingThreads(); n > 0 {
		// Netd's parked-sweep and settled-sweep state snapshots fine; what
		// cannot is a waiter itself — a live reference to a blocked thread
		// and its billing reserve, plus a pool-crossing prediction over
		// them, in an object world the restore rebuilds from scratch.
		return nil, fmt.Errorf("fleet: device %d (scenario %q) not checkpoint-quiet: %d callers blocked in netd; "+
			"a cooperative-pooling session (and its predicted pool-crossing) cannot span a "+
			"checkpoint — the %q workload has a poll in flight at this epoch boundary; "+
			"move the boundary (-checkpoint-every) to an instant where no poll is in flight",
			d.Index, d.Scenario, n, d.Scenario)
	}
	return snap.Save(d.codec)
}

// codec saves a device's record or loads it onto a freshly built
// device. Every divergence between the record and the rebuilt device —
// a different device or scenario bucket, workload drift, mid-run state
// the rebuild cannot reproduce — fails the load with a descriptive
// error rather than producing a silently wrong device.
func (d *Device) codec(c *snap.Codec) {
	c.Section("fleet-device")
	idx, seed := d.Index, d.Seed
	snap.Uint(c, &idx)
	snap.Int(c, &seed)
	if idx != d.Index || seed != d.Seed {
		c.Failf("fleet: restore: snapshot of device %d (seed %d) onto device %d (seed %d)", idx, seed, d.Index, d.Seed)
	}
	c.SameString("scenario bucket", d.Scenario)
	c.SameBool("smdd presence", d.Smdd != nil)
	d.Kernel.Codec(c)
	d.Radio.Codec(c)
	d.Netd.Codec(c)
	if d.Smdd != nil {
		d.Smdd.Codec(c)
	}
	// Checked by hand: a mismatch after the nested sections must still
	// name the device record.
	hooks := len(d.Hooks)
	snap.Uint(c, &hooks)
	if hooks != len(d.Hooks) {
		c.Failf("fleet: restore: snapshot has %d workload hooks, rebuilt device registered %d",
			hooks, len(d.Hooks))
		return
	}
	for _, h := range d.Hooks {
		h(c)
	}
}

// codec saves or loads a dead device's final result, passed through
// the epoch files that follow its death.
func (d *DeviceResult) codec(c *snap.Codec) {
	c.Section("fleet-result")
	snap.Uint(c, &d.Index)
	snap.Int(c, &d.Seed)
	c.String(&d.Scenario)
	snap.Int(c, &d.BatteryLeft)
	c.Bool(&d.Died)
	snap.Int(c, &d.DiedAt)
	util := math.Float64bits(d.Utilization)
	snap.Uint(c, &util)
	d.Utilization = math.Float64frombits(util)
	d.Counters.codec(c)
}

// codec saves or loads every counter in declaration order.
func (c *Counters) codec(cd *snap.Codec) {
	snap.Int(cd, &c.Consumed)
	snap.Int(cd, &c.Recharged)
	snap.Int(cd, &c.Reclaimed)
	snap.Int(cd, &c.BusyTicks)
	snap.Int(cd, &c.IdleTicks)
	snap.Int(cd, &c.RadioActivations)
	snap.Int(cd, &c.Polls)
	snap.Int(cd, &c.Pages)
	snap.Int(cd, &c.PowerUps)
	snap.Int(cd, &c.SMSSent)
	snap.Int(cd, &c.CallsPlaced)
	snap.Uint(cd, &c.EngineSteps)
	snap.Int(cd, &c.FlowWalks)
	snap.Int(cd, &c.SettledBatches)
	snap.Int(cd, &c.SettledSweeps)
	snap.Int(cd, &c.SettledCharges)
}

// codec saves or loads the epoch header. A load only reads it: the
// caller compares the whole header with the one its run would write.
func (h *epochHeader) codec(c *snap.Codec) {
	c.Section("epoch-header")
	h.id.codec(c)
	snap.Int(c, &h.every)
	snap.Uint(c, &h.epoch)
	snap.Uint(c, &h.lo)
	snap.Uint(c, &h.hi)
}

// codec saves or loads the identity in declaration order.
func (id *Identity) codec(c *snap.Codec) {
	c.String(&id.Scenario)
	snap.Uint(c, &id.Devices)
	snap.Int(c, &id.Seed)
	snap.Int(c, &id.Duration)
	snap.Int(c, &id.BatteryCapacity)
	snap.Int(c, &id.LifeResolution)
}
