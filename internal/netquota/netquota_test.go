package netquota

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

func newPlan(t *testing.T, quota Bytes) (*Plan, *kobj.Table) {
	t.Helper()
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	return NewPlan(tbl, root, PlanConfig{Quota: quota, Category: 99}), tbl
}

func TestPlanPoolStartsAtQuota(t *testing.T) {
	p, _ := newPlan(t, 2*Gibibyte)
	rem, err := p.Remaining()
	if err != nil {
		t.Fatal(err)
	}
	if rem != 2*Gibibyte {
		t.Fatalf("remaining = %d, want 2 GiB", rem)
	}
	if p.Used() != 0 {
		t.Fatal("fresh plan shows usage")
	}
}

func TestGrantAndCharge(t *testing.T) {
	p, _ := newPlan(t, 100*Mebibyte)
	a, err := p.NewAllowance("browser", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Grant(a, 10*Mebibyte); err != nil {
		t.Fatal(err)
	}
	if err := a.Charge(label.Priv{}, 4*Mebibyte); err != nil {
		t.Fatal(err)
	}
	lvl, _ := a.Level(label.Priv{})
	if lvl != 6*Mebibyte {
		t.Fatalf("level = %d, want 6 MiB", lvl)
	}
	st, _ := a.Reserve.Stats(label.Priv{})
	if st.Consumed != 4*Mebibyte {
		t.Fatalf("used = %d", st.Consumed)
	}
	if p.Used() != 4*Mebibyte {
		t.Fatalf("plan used = %d", p.Used())
	}
	// Quota enforcement: all-or-nothing.
	err = a.Charge(label.Priv{}, 10*Mebibyte)
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("overdraft err = %v, want ErrQuota", err)
	}
	if lvl, _ := a.Level(label.Priv{}); lvl != 6*Mebibyte {
		t.Fatal("failed charge changed balance")
	}
}

func TestRateLimitedAllowance(t *testing.T) {
	// A background app trickle-fed 1 KiB/s, the tap pattern from the
	// energy graph applied to bytes.
	p, _ := newPlan(t, 100*Mebibyte)
	a, err := p.NewAllowance("sync", ByteRate(Kibibyte))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Flow(100 * units.Millisecond) // 10 s total
	}
	lvl, _ := a.Level(label.Priv{})
	if lvl != 10*Kibibyte {
		t.Fatalf("level = %d, want exactly 10 KiB", lvl)
	}
	// The app cannot raise its own tap.
	tap := p.graph.TapsInto(a.Reserve, nil)[0]
	if err := tap.SetRate(label.Priv{}, ByteRate(Mebibyte)); err == nil {
		t.Fatal("app raised its own byte rate")
	}
	// The plan owner can.
	if err := tap.SetRate(p.priv, ByteRate(2*Kibibyte)); err != nil {
		t.Fatal(err)
	}
}

func TestDelegationBetweenApps(t *testing.T) {
	p, _ := newPlan(t, 100*Mebibyte)
	a, _ := p.NewAllowance("a", 0)
	b, _ := p.NewAllowance("b", 0)
	if err := p.Grant(a, 10*Mebibyte); err != nil {
		t.Fatal(err)
	}
	if err := p.Delegate(a, b, 3*Mebibyte, label.Priv{}); err != nil {
		t.Fatal(err)
	}
	al, _ := a.Level(label.Priv{})
	bl, _ := b.Level(label.Priv{})
	if al != 7*Mebibyte || bl != 3*Mebibyte {
		t.Fatalf("levels = %d/%d", al, bl)
	}
}

func TestPlanConservation(t *testing.T) {
	p, _ := newPlan(t, 50*Mebibyte)
	a, _ := p.NewAllowance("a", ByteRate(Mebibyte))
	for i := 0; i < 20; i++ {
		p.Flow(units.Second)
		_ = a.Charge(label.Priv{}, 512*Kibibyte)
	}
	if ce := p.graph.ConservationError(); ce != 0 {
		t.Fatalf("byte conservation error %d", ce)
	}
	rem, _ := p.Remaining()
	lvl, _ := a.Level(label.Priv{})
	if rem+lvl+p.Used() != 50*Mebibyte {
		t.Fatalf("pool %d + allowance %d + used %d != quota", rem, lvl, p.Used())
	}
}

func TestPoolProtected(t *testing.T) {
	p, _ := newPlan(t, Gibibyte)
	var app label.Priv
	if err := p.graph.Battery().Consume(app, Mebibyte); err == nil {
		t.Fatal("application drained plan pool directly")
	}
}

func TestDeleteAllowanceReturnsBytes(t *testing.T) {
	p, tbl := newPlan(t, 100*Mebibyte)
	a, _ := p.NewAllowance("doomed", 0)
	if err := p.Grant(a, 20*Mebibyte); err != nil {
		t.Fatal(err)
	}
	before, _ := p.Remaining()
	// Deleting the allowance's container returns its balance to the
	// pool (container GC + release hook).
	kids := p.root.Children() // the allowance's container is the newest
	if err := tbl.Delete(kids[len(kids)-1].ObjectID()); err != nil {
		t.Fatal(err)
	}
	after, _ := p.Remaining()
	if after-before != 20*Mebibyte {
		t.Fatalf("pool gained %d, want 20 MiB back", after-before)
	}
}

func TestSMSQuota(t *testing.T) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	q := NewSMSQuota(tbl, root, 100, 7)

	app, err := q.NewAppAllowance("messenger", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := app.Send(label.Priv{}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := app.Send(label.Priv{}); !errors.Is(err, ErrSMSQuota) {
		t.Fatalf("4th send err = %v, want ErrSMSQuota", err)
	}
	if q.graph.Consumed() != 3 {
		t.Fatalf("sent = %d", q.graph.Consumed())
	}
	rem, _ := q.Remaining()
	if rem != 97 {
		t.Fatalf("pool = %d, want 97", rem)
	}
	// Top up and resume.
	if err := q.graph.Transfer(q.priv, q.graph.Battery(), app.Reserve, 2); err != nil {
		t.Fatal(err)
	}
	if err := app.Send(label.Priv{}); err != nil {
		t.Fatal(err)
	}
	bal, _ := app.Reserve.Level(label.Priv{})
	if bal != 1 {
		t.Fatalf("balance = %d", bal)
	}
}

func TestSMSOverGrant(t *testing.T) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	q := NewSMSQuota(tbl, root, 5, 7)
	if _, err := q.NewAppAllowance("greedy", 10); !errors.Is(err, core.ErrInsufficient) {
		t.Fatalf("over-grant err = %v, want ErrInsufficient", err)
	}
}
