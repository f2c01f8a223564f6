package netquota

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// Messages counts SMS messages; one core resource unit is one message.
type Messages = units.Energy

// ErrSMSQuota reports an exhausted message allowance.
var ErrSMSQuota = errors.New("netquota: SMS quota exhausted")

// SMSQuota enforces a message budget (§9: "reserves could also be used
// to enforce SMS text message quotas"). The pool holds the billing
// period's messages; per-app reserves subdivide it.
type SMSQuota struct {
	graph *core.Graph
	table *kobj.Table
	root  *kobj.Container
	priv  label.Priv
}

// NewSMSQuota creates a quota of n messages per period.
func NewSMSQuota(tbl *kobj.Table, parent *kobj.Container, n Messages, cat label.Category) *SMSQuota {
	q := &SMSQuota{table: tbl}
	q.root = kobj.NewContainer(tbl, parent, label.Public())
	poolLabel := label.Public()
	if cat != 0 {
		q.priv = label.NewPriv(cat)
		poolLabel = poolLabel.With(cat, label.Level2)
	}
	q.graph = core.NewGraph(tbl, q.root, poolLabel, core.Config{
		BatteryCapacity: n,
		DecayHalfLife:   -1,
	})
	return q
}

// Remaining returns the messages left in the pool.
func (q *SMSQuota) Remaining() (Messages, error) {
	return q.graph.Battery().Level(q.priv)
}

// AppAllowance is one application's message budget.
type AppAllowance struct {
	Reserve *core.Reserve
	name    string
}

// NewAppAllowance grants an application n messages out of the pool.
// The balance is a hard cap: when it is gone, Send fails until the
// owner grants more.
func (q *SMSQuota) NewAppAllowance(name string, n Messages) (*AppAllowance, error) {
	c := kobj.NewContainer(q.table, q.root, label.Public())
	res := q.graph.NewReserve(c, name+"-sms", label.Public(), core.ReserveOpts{})
	if err := q.graph.Transfer(q.priv, q.graph.Battery(), res, n); err != nil {
		return nil, fmt.Errorf("netquota: sms allowance %q: %w", name, err)
	}
	return &AppAllowance{Reserve: res, name: name}, nil
}

// Send consumes one message from the allowance.
func (a *AppAllowance) Send(callerPriv label.Priv) error {
	if err := a.Reserve.Consume(callerPriv, 1); err != nil {
		if errors.Is(err, core.ErrInsufficient) {
			return fmt.Errorf("%w: %q", ErrSMSQuota, a.name)
		}
		return err
	}
	return nil
}
