package kobj

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/label"
)

// fakeObj is a minimal non-container object for tests.
type fakeObj struct {
	Base
	releasedCount int
}

func newFake(t *Table, parent *Container, kind Kind) *fakeObj {
	f := &fakeObj{}
	f.OnRelease(func() { f.releasedCount++ })
	t.Register(&f.Base, kind, label.Public(), parent, f)
	return f
}

func TestRegisterAssignsSequentialIDs(t *testing.T) {
	tbl := NewTable()
	root := NewContainer(tbl, nil, label.Public())
	a := newFake(tbl, root, KindReserve)
	b := newFake(tbl, root, KindTap)
	if root.ObjectID() != 1 || a.ObjectID() != 2 || b.ObjectID() != 3 {
		t.Fatalf("ids = %d,%d,%d, want 1,2,3", root.ObjectID(), a.ObjectID(), b.ObjectID())
	}
	if a.ObjectKind() != KindReserve || b.ObjectKind() != KindTap {
		t.Fatal("kinds wrong")
	}
}

func TestDeleteLeaf(t *testing.T) {
	tbl := NewTable()
	root := NewContainer(tbl, nil, label.Public())
	a := newFake(tbl, root, KindReserve)
	if err := tbl.Delete(a.ObjectID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.objs[a.ObjectID()]; ok {
		t.Fatal("object live after delete")
	}
	if a.releasedCount != 1 {
		t.Fatalf("release hook ran %d times, want 1", a.releasedCount)
	}
	if len(root.children) != 0 {
		t.Fatal("container still references deleted child")
	}
}

func TestDeleteCascades(t *testing.T) {
	// root > c1 > c2 > leaf; deleting c1 must release c2 and leaf.
	tbl := NewTable()
	root := NewContainer(tbl, nil, label.Public())
	c1 := NewContainer(tbl, root, label.Public())
	c2 := NewContainer(tbl, c1, label.Public())
	leaf := newFake(tbl, c2, KindReserve)
	sibling := newFake(tbl, root, KindReserve)

	if err := tbl.Delete(c1.ObjectID()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ID{c1.ObjectID(), c2.ObjectID(), leaf.ObjectID()} {
		if _, ok := tbl.objs[id]; ok {
			t.Errorf("id %d live after ancestor delete", id)
		}
	}
	if leaf.releasedCount != 1 {
		t.Fatalf("leaf released %d times, want 1", leaf.releasedCount)
	}
	if _, ok := tbl.objs[sibling.ObjectID()]; !ok {
		t.Fatal("sibling outside subtree was deleted")
	}
	if len(tbl.objs) != 2 { // root + sibling
		t.Fatalf("live objects = %d, want 2", len(tbl.objs))
	}
}

func TestDeleteTwice(t *testing.T) {
	tbl := NewTable()
	root := NewContainer(tbl, nil, label.Public())
	a := newFake(tbl, root, KindReserve)
	if err := tbl.Delete(a.ObjectID()); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(a.ObjectID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete err = %v, want ErrNotFound", err)
	}
}

func TestParent(t *testing.T) {
	tbl := NewTable()
	root := NewContainer(tbl, nil, label.Public())
	c := NewContainer(tbl, root, label.Public())
	a := newFake(tbl, c, KindReserve)
	if tbl.parent[a.ObjectID()] != c {
		t.Fatal("parent of a is not c")
	}
	if tbl.parent[root.ObjectID()] != nil {
		t.Fatal("root has a parent")
	}
}

func TestChildrenSorted(t *testing.T) {
	tbl := NewTable()
	root := NewContainer(tbl, nil, label.Public())
	var ids []ID
	for i := 0; i < 10; i++ {
		ids = append(ids, newFake(tbl, root, KindReserve).ObjectID())
	}
	kids := root.Children()
	if len(kids) != len(ids) {
		t.Fatalf("Children len = %d, want %d", len(kids), len(ids))
	}
	for i := 1; i < len(kids); i++ {
		if kids[i].ObjectID() <= kids[i-1].ObjectID() {
			t.Fatal("Children not sorted by ID")
		}
	}
}

func TestReleaseHookRunsOncePerObjectRandomTree(t *testing.T) {
	// Property: build a random container tree, delete a random container;
	// every object in the subtree is released exactly once, everything
	// else exactly zero times, and table bookkeeping is consistent.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		tbl := NewTable()
		root := NewContainer(tbl, nil, label.Public())
		containers := []*Container{root}
		var leaves []*fakeObj
		for i := 0; i < 40; i++ {
			parent := containers[r.Intn(len(containers))]
			if r.Intn(3) == 0 {
				containers = append(containers, NewContainer(tbl, parent, label.Public()))
			} else {
				leaves = append(leaves, newFake(tbl, parent, KindReserve))
			}
		}
		victim := containers[r.Intn(len(containers))]
		inSubtree := map[ID]bool{}
		var mark func(c *Container)
		mark = func(c *Container) {
			inSubtree[c.ObjectID()] = true
			for _, ch := range c.Children() {
				if cc, ok := ch.(*Container); ok {
					mark(cc)
				} else {
					inSubtree[ch.ObjectID()] = true
				}
			}
		}
		mark(victim)

		before := len(tbl.objs)
		if err := tbl.Delete(victim.ObjectID()); err != nil {
			t.Fatal(err)
		}
		if got, want := len(tbl.objs), before-len(inSubtree); got != want {
			t.Fatalf("trial %d: live objects = %d, want %d", trial, got, want)
		}
		for _, f := range leaves {
			want := 0
			if inSubtree[f.ObjectID()] {
				want = 1
			}
			if f.releasedCount != want {
				t.Fatalf("trial %d: leaf %d released %d times, want %d",
					trial, f.ObjectID(), f.releasedCount, want)
			}
			if _, live := tbl.objs[f.ObjectID()]; live == inSubtree[f.ObjectID()] {
				t.Fatalf("trial %d: liveness inconsistent for %d", trial, f.ObjectID())
			}
		}
	}
}
