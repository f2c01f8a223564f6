package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// TaskManager implements the §5.4 background-application policy
// (Fig. 7): system power is subdivided into a foreground reserve fed by
// a high-rate tap and a background reserve fed by a low-rate tap. Every
// managed application draws from its own reserve, which is connected to
// both: the background tap always flows; the foreground tap is 0 except
// for the one application the user is interacting with. The task
// manager creates the foreground taps and "is the only thread
// privileged to modify the parameters on the tap".
type TaskManager struct {
	k    *kernel.Kernel
	cat  label.Category
	priv label.Priv

	Container  *kobj.Container
	Foreground *core.Reserve
	Background *core.Reserve
	fgSupply   *core.Tap
	bgSupply   *core.Tap
	fgRate     units.Power

	apps map[string]*ManagedApp
}

// ManagedApp is one application under task-manager control.
type ManagedApp struct {
	*Spinner
	fgTap *core.Tap
}

// TaskManagerConfig parameterizes NewTaskManager.
type TaskManagerConfig struct {
	// ForegroundRate is the per-app rate when foregrounded: 137 mW in
	// Fig. 12a (exactly the CPU's full-utilization cost) or 300 mW in
	// Fig. 12b (enough to hoard).
	ForegroundRate units.Power
	// BackgroundRate is the total background budget (14 mW in Fig. 12,
	// "enough to keep the 137 mW CPU at 10% utilization").
	BackgroundRate units.Power
}

// NewTaskManager builds the Fig. 7 reserve/tap structure. ownerPriv
// must be able to use src (the battery).
func NewTaskManager(k *kernel.Kernel, parent *kobj.Container, ownerPriv label.Priv, src *core.Reserve, cfg TaskManagerConfig) (*TaskManager, error) {
	tm := &TaskManager{k: k, fgRate: cfg.ForegroundRate, apps: make(map[string]*ManagedApp)}
	tm.cat = k.NewCategory()
	tm.priv = label.NewPriv(tm.cat)
	tapLbl := label.Public().With(tm.cat, label.Level2)

	tm.Container = kobj.NewContainer(k.Table, parent, label.Public())
	tm.Foreground = k.CreateReserve(tm.Container, "foreground", label.Public())
	tm.Background = k.CreateReserve(tm.Container, "background", label.Public())

	var err error
	tm.fgSupply, err = k.CreateTap(tm.Container, "fg-supply", ownerPriv, src, tm.Foreground, tapLbl)
	if err != nil {
		return nil, fmt.Errorf("apps: taskmgr: %w", err)
	}
	tm.bgSupply, err = k.CreateTap(tm.Container, "bg-supply", ownerPriv, src, tm.Background, tapLbl)
	if err != nil {
		return nil, fmt.Errorf("apps: taskmgr: %w", err)
	}
	// Foreground supply flows only while some app is foregrounded;
	// background always flows.
	if err := tm.fgSupply.SetRate(ownerPriv.Union(tm.priv), 0); err != nil {
		return nil, err
	}
	if err := tm.bgSupply.SetRate(ownerPriv.Union(tm.priv), cfg.BackgroundRate); err != nil {
		return nil, err
	}
	return tm, nil
}

// Manage creates a spinner application under the manager's policy with
// its per-app background share (Fig. 7 wiring). The app starts in the
// background.
func (tm *TaskManager) Manage(name string, bgShare units.Power) (*ManagedApp, error) {
	if _, dup := tm.apps[name]; dup {
		return nil, fmt.Errorf("apps: taskmgr: %q already managed", name)
	}
	tapLbl := label.Public().With(tm.cat, label.Level2)
	// The app's own reserve, fed by its background tap.
	sp, err := NewSpinner(tm.k, tm.Container, name, tm.priv, tm.Background, bgShare, tapLbl)
	if err != nil {
		return nil, err
	}
	fgTap, err := tm.k.CreateTap(sp.Container, name+"-fgtap", tm.priv, tm.Foreground, sp.Reserve, tapLbl)
	if err != nil {
		return nil, err
	}
	if err := fgTap.SetRate(tm.priv, 0); err != nil {
		return nil, err
	}
	app := &ManagedApp{Spinner: sp, fgTap: fgTap}
	tm.apps[name] = app
	return app, nil
}

// SetForeground brings the named app to the foreground (empty name:
// everything backgrounded): its foreground tap opens at the configured
// rate, every other app's closes (§5.4: "the foreground tap is set to a
// rate of 0 while the application is running in the background").
func (tm *TaskManager) SetForeground(name string) error {
	if name != "" {
		if _, ok := tm.apps[name]; !ok {
			return fmt.Errorf("apps: taskmgr: unknown app %q", name)
		}
	}
	supply := units.Power(0)
	for n, app := range tm.apps {
		rate := units.Power(0)
		if n == name {
			rate = tm.fgRate
			supply = tm.fgRate
		}
		if err := app.fgTap.SetRate(tm.priv, rate); err != nil {
			return err
		}
	}
	return tm.fgSupply.SetRate(tm.priv, supply)
}

// Apps returns the managed applications keyed by name.
func (tm *TaskManager) Apps() map[string]*ManagedApp {
	out := make(map[string]*ManagedApp, len(tm.apps))
	for n, a := range tm.apps {
		out[n] = a
	}
	return out
}
