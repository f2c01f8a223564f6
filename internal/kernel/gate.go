package kernel

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/sched"
	"repro/internal/units"
)

// Errors returned by gate operations.
var (
	ErrNoGate = errors.New("kernel: no such gate")
)

// Call is the context a gate service receives. The calling thread has
// "entered the daemon's address space" (§5.5.1); all billing helpers
// resolve to the caller's reserve under BillCaller semantics and to the
// daemon's under BillDaemon (the Cinder-Linux mis-attribution of §7.1).
type Call struct {
	// Caller is the thread that invoked the gate.
	Caller *sched.Thread
	// Now is the simulated time of the call.
	Now units.Time
	// Args carries the request payload.
	Args any

	gate *Gate
}

// BillTo returns the reserve that pays for work performed during this
// call.
func (c *Call) BillTo() *core.Reserve {
	if c.gate.kernel.billing == BillDaemon && c.gate.daemonReserve != nil {
		return c.gate.daemonReserve
	}
	return c.Caller.ActiveReserve()
}

// BillPriv returns the privileges billing operations should use: the
// caller's own privileges, augmented with any the gate embeds (a gate,
// like a tap, may carry the daemon's privileges so it can debit the
// daemon-side pool).
func (c *Call) BillPriv() label.Priv {
	if c.gate.kernel.billing == BillDaemon {
		return c.gate.daemonPriv
	}
	return c.Caller.Priv().Union(c.gate.daemonPriv)
}

// Service is a gate's handler. It runs synchronously in the calling
// thread's context and returns a reply value.
type Service func(call *Call) (any, error)

// Gate is a protected control-transfer entry point (§3.1, §5.5.1). It
// is a kernel object: deleting its container revokes the service.
type Gate struct {
	kobj.Base
	kernel        *Kernel
	name          string
	service       Service
	daemonPriv    label.Priv
	daemonReserve *core.Reserve
	dead          bool
}

// RegisterGate creates a gate named name in parent. daemonPriv are the
// privileges the daemon embeds in the gate (used for daemon-side pools);
// daemonReserve, which may be nil, is the daemon's own reserve — the
// billing target under BillDaemon semantics.
func (k *Kernel) RegisterGate(parent *kobj.Container, name string, lbl label.Label, daemonPriv label.Priv, daemonReserve *core.Reserve, svc Service) (*Gate, error) {
	if _, exists := k.gates[name]; exists {
		return nil, fmt.Errorf("kernel: gate %q already registered", name)
	}
	g := &Gate{
		kernel:        k,
		name:          name,
		service:       svc,
		daemonPriv:    daemonPriv,
		daemonReserve: daemonReserve,
	}
	g.OnRelease(func() {
		g.dead = true
		delete(k.gates, g.name)
	})
	k.Table.Register(&g.Base, kobj.KindGate, lbl, parent, g)
	k.gates[name] = g
	return g, nil
}

// GateCall invokes the named gate on behalf of caller. The caller must
// be able to observe the gate object. The service runs synchronously —
// the calling thread executes the daemon's code, so CPU billing
// continues against the caller's reserve automatically (it is the same
// scheduled thread), and the service's explicit device billing goes to
// Call.BillTo.
func (k *Kernel) GateCall(name string, caller *sched.Thread, args any) (any, error) {
	g, ok := k.gates[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoGate, name)
	}
	if g.dead {
		return nil, fmt.Errorf("%w: %q (revoked)", ErrNoGate, name)
	}
	if !caller.Priv().CanObserve(g.Label()) {
		return nil, fmt.Errorf("%w: enter gate %q", core.ErrAccess, name)
	}
	call := &Call{Caller: caller, Now: k.Now(), Args: args, gate: g}
	return g.service(call)
}
