package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/sched"
	"repro/internal/units"
)

// Wrapped is the result of energywrap (§5.1): an arbitrary workload
// confined to a rate-limited reserve. The wrapped thread's active
// reserve is the sandbox reserve, exactly the fork/set_active_reserve/
// exec sequence of Fig. 5, so even energy-unaware programs acquire an
// energy policy.
type Wrapped struct {
	Thread  *sched.Thread
	Reserve *core.Reserve
}

// EnergyWrap runs the given runner under a rate limit drawn from the
// `from` reserve. ownerPriv must be able to use `from`; the created tap
// is labeled tapLbl so the wrapper retains control of the rate.
//
// The nesting the paper highlights — energywrap wrapping energywrap —
// falls out naturally: pass a Wrapped's Reserve as `from` to a second
// call.
func EnergyWrap(k *kernel.Kernel, parent *kobj.Container, name string, ownerPriv label.Priv, from *core.Reserve, rate units.Power, tapLbl label.Label, runner sched.Runner) (*Wrapped, error) {
	c := kobj.NewContainer(k.Table, parent, label.Public())
	res, _, err := k.Wrap(c, name, ownerPriv, from, rate, tapLbl)
	if err != nil {
		return nil, fmt.Errorf("apps: energywrap %q: %w", name, err)
	}
	th := k.Sched.NewThread(c, name, label.Public(), label.Priv{}, runner, res)
	return &Wrapped{Thread: th, Reserve: res}, nil
}

// Consumed reports the sandboxed workload's total consumption.
func (w *Wrapped) Consumed() (units.Energy, error) {
	st, err := w.Reserve.Stats(label.Priv{})
	if err != nil {
		return 0, err
	}
	return st.Consumed, nil
}
