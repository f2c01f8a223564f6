// Package netquota implements the paper's §9 future-work proposal:
// applying reserves and taps to resources other than energy. "Since
// data plans are frequently offered in terms of megabyte quotas,
// Cinder's mechanisms could be repurposed to limit application network
// access by replacing the logical battery with a pool of network bytes.
// Similarly, reserves could also be used to enforce SMS text message
// quotas."
//
// The consumption-graph machinery in internal/core is unit-agnostic
// int64 arithmetic, so a data plan is simply a second Graph whose root
// reserve holds bytes instead of microjoules and whose taps are byte
// rates (bytes/s) instead of powers. Isolation, delegation, subdivision,
// labels and container GC all carry over unchanged — which is precisely
// the paper's point.
package netquota

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// Bytes is a quantity of network data. It reuses the graph's int64
// resource slot: one core "microjoule" is one byte.
type Bytes = units.Energy

// ByteRate is bytes per second (the graph's "power" slot).
type ByteRate = units.Power

// Common quantities.
const (
	Byte     Bytes = 1
	Kibibyte       = 1024 * Byte
	Mebibyte       = 1024 * Kibibyte
	Gibibyte       = 1024 * Mebibyte
)

// ErrQuota reports an allowance that cannot cover a transfer.
var ErrQuota = errors.New("netquota: insufficient data allowance")

// Plan is a metered data plan: a root reserve holding the period's
// byte quota, subdivided to applications through taps and transfers.
type Plan struct {
	graph *core.Graph
	table *kobj.Table
	root  *kobj.Container
	cat   label.Category
	priv  label.Priv
}

// PlanConfig parameterizes a Plan.
type PlanConfig struct {
	// Quota is the billing period's byte budget (e.g. 2 GiB).
	Quota Bytes
	// Category protects the plan pool; 0 allocates none (public pool,
	// test use only).
	Category label.Category
}

// NewPlan creates a plan whose pool lives under root in the given
// object table. Deleting root tears the whole plan down.
func NewPlan(tbl *kobj.Table, parent *kobj.Container, cfg PlanConfig) *Plan {
	p := &Plan{table: tbl, cat: cfg.Category}
	p.root = kobj.NewContainer(tbl, parent, label.Public())
	poolLabel := label.Public()
	if cfg.Category != 0 {
		p.priv = label.NewPriv(cfg.Category)
		poolLabel = poolLabel.With(cfg.Category, label.Level2)
	}
	// No decay: unused megabytes do not evaporate mid-cycle. (A carrier
	// that expires data could model it with a proportional back tap.)
	p.graph = core.NewGraph(tbl, p.root, poolLabel, core.Config{
		BatteryCapacity: cfg.Quota,
		DecayHalfLife:   -1,
	})
	return p
}

// Remaining returns the unallocated bytes left in the pool.
func (p *Plan) Remaining() (Bytes, error) {
	return p.graph.Battery().Level(p.priv)
}

// Used returns the bytes consumed (actually transferred on the wire)
// across all allowances.
func (p *Plan) Used() Bytes { return p.graph.Consumed() }

// Allowance is one application's byte budget.
type Allowance struct {
	Reserve *core.Reserve
	name    string
}

// NewAllowance creates an application allowance fed from the pool at
// the given sustained rate (0 for a grant-only allowance funded by
// Grant). The tap is protected by the plan's category so applications
// cannot raise their own rate — the exact energywrap pattern applied to
// bytes.
func (p *Plan) NewAllowance(name string, rate ByteRate) (*Allowance, error) {
	c := kobj.NewContainer(p.table, p.root, label.Public())
	res := p.graph.NewReserve(c, name+"-bytes", label.Public(), core.ReserveOpts{})
	a := &Allowance{Reserve: res, name: name}
	if rate > 0 {
		lbl := label.Public()
		if p.cat != 0 {
			lbl = lbl.With(p.cat, label.Level2)
		}
		tap, err := p.graph.NewTap(c, name+"-tap", p.priv, p.graph.Battery(), res, lbl)
		if err != nil {
			return nil, fmt.Errorf("netquota: allowance %q: %w", name, err)
		}
		if err := tap.SetRate(p.priv, rate); err != nil {
			return nil, fmt.Errorf("netquota: allowance %q: %w", name, err)
		}
	}
	return a, nil
}

// Grant moves a one-shot block of bytes from the pool into the
// allowance (subdivision by quantity rather than rate).
func (p *Plan) Grant(a *Allowance, n Bytes) error {
	return p.graph.Transfer(p.priv, p.graph.Battery(), a.Reserve, n)
}

// Delegate moves bytes between two allowances — one app lending its
// data budget to another, the delegation story of §2.2 applied to §9's
// resource.
func (p *Plan) Delegate(from, to *Allowance, n Bytes, callerPriv label.Priv) error {
	return p.graph.Transfer(callerPriv, from.Reserve, to.Reserve, n)
}

// Flow advances the plan's taps by dt; callers hook this to their
// simulation clock (the kernel does the equivalent for energy).
func (p *Plan) Flow(dt units.Time) { p.graph.Flow(dt) }

// Charge debits a completed transfer of n bytes from the allowance,
// all-or-nothing. It is the enforcement point a network stack calls
// before moving data.
func (a *Allowance) Charge(callerPriv label.Priv, n Bytes) error {
	if err := a.Reserve.Consume(callerPriv, n); err != nil {
		if errors.Is(err, core.ErrInsufficient) {
			// Format as bytes: the underlying graph's unit strings are
			// energy-flavoured.
			return fmt.Errorf("%w: %q needs %d bytes", ErrQuota, a.name, int64(n))
		}
		return err
	}
	return nil
}

// Level returns the allowance's current byte balance.
func (a *Allowance) Level(callerPriv label.Priv) (Bytes, error) {
	return a.Reserve.Level(callerPriv)
}
