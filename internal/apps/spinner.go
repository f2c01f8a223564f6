// Package apps contains the applications the Cinder paper builds to
// exercise reserves and taps (§5): the energywrap sandbox utility, a web
// browser that isolates its plugin, an energy-aware image viewer, a task
// manager that confines background applications, and the periodic
// network pollers (mail, RSS) used by the cooperative-netd evaluation.
//
// Each application is a small state machine driven by the scheduler; all
// of its energy use flows through the reserve/tap graph, so the
// experiments in internal/experiments observe exactly what the paper's
// accounting plots show.
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

// Spinner is a CPU-bound process: a container, a thread with no
// behaviour beyond burning CPU, and a reserve fed by a constant tap.
// It is the workload of Figures 9 and 12.
type Spinner struct {
	Container *kobj.Container
	Thread    *sched.Thread
	Reserve   *core.Reserve
	Tap       *core.Tap
}

// NewSpinner creates a spinner drawing from a fresh reserve fed at rate
// from src. The tap is labeled with ownerLbl (pass label.Public() for an
// unprotected tap) and created with ownerPriv, which must be able to use
// src.
func NewSpinner(k *kernel.Kernel, parent *kobj.Container, name string, ownerPriv label.Priv, src *core.Reserve, rate units.Power, ownerLbl label.Label) (*Spinner, error) {
	c := kobj.NewContainer(k.Table, parent, label.Public())
	res := k.CreateReserve(c, name+"-reserve", label.Public())
	tap, err := k.CreateTap(c, name+"-tap", ownerPriv, src, res, ownerLbl)
	if err != nil {
		return nil, fmt.Errorf("apps: spinner %q: %w", name, err)
	}
	if err := tap.SetRate(ownerPriv, rate); err != nil {
		return nil, fmt.Errorf("apps: spinner %q: %w", name, err)
	}
	th := k.Sched.NewThread(c, name, label.Public(), label.Priv{}, nil, res)
	return &Spinner{Container: c, Thread: th, Reserve: res, Tap: tap}, nil
}

// CPUConsumed returns the spinner's total CPU energy.
func (s *Spinner) CPUConsumed() units.Energy { return s.Thread.CPUConsumed() }

// Forker is the Fig. 9 process B: a spinner that, at scheduled times,
// forks children and pays for them by subdividing its own tap — each
// child receives a new reserve fed from the parent's reserve, and the
// parent's effective power share shrinks accordingly. Process A's
// isolation from these forks is the experiment's headline.
type Forker struct {
	*Spinner
	k *kernel.Kernel
}

// NewForker creates the parent spinner.
func NewForker(k *kernel.Kernel, parent *kobj.Container, name string, ownerPriv label.Priv, src *core.Reserve, rate units.Power) (*Forker, error) {
	s, err := NewSpinner(k, parent, name, ownerPriv, src, rate, label.Public())
	if err != nil {
		return nil, err
	}
	return &Forker{Spinner: s, k: k}, nil
}

// ForkChild spawns a child spinner funded by a tap from the parent's
// own reserve at the given rate (Fig. 9: "each of the taps has
// one-quarter the power of B's tap").
func (f *Forker) ForkChild(name string, rate units.Power) (*Spinner, error) {
	return NewSpinner(f.k, f.Container, name, label.Priv{}, f.Reserve, rate, label.Public())
}
