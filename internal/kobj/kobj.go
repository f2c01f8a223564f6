// Package kobj implements the HiStar-style kernel object layer Cinder
// builds on (§3.1): every first-class object has an ID and a security
// label, and objects live inside containers that provide hierarchical
// control over deallocation — an object not referenced by a live
// container is garbage and is torn down, just as the paper describes for
// reserves whose containing page taps are dropped (§5.2).
//
// The package is deliberately minimal: it knows nothing about energy.
// Reserves and taps (internal/core) register themselves here like any
// other kernel object and receive deallocation callbacks when an
// ancestor container is deleted.
package kobj

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/label"
)

// ID names a kernel object uniquely within one Table. ID 0 is never
// allocated ("nil object").
type ID uint64

// Kind enumerates the first-class object types of the Cinder kernel.
type Kind uint8

const (
	KindContainer Kind = iota
	KindThread
	KindGate
	KindReserve
	KindTap
	KindDevice
)

// Object is the interface all kernel objects implement.
type Object interface {
	// ObjectID returns the object's table-unique ID.
	ObjectID() ID
	// ObjectKind returns the object's kind.
	ObjectKind() Kind
	// Label returns the object's security label.
	Label() label.Label
	// released is called exactly once when the object is deallocated,
	// either directly or because an ancestor container was deleted.
	// Implementations unhook themselves from subsystem state (e.g. a tap
	// stops flowing).
	released()
}

// Base provides the common identity fields for kernel objects and a
// default released hook. Embed it and call Table.Register.
type Base struct {
	id    ID
	kind  Kind
	lbl   label.Label
	onRel func()
}

// ObjectID implements Object.
func (b *Base) ObjectID() ID { return b.id }

// ObjectKind implements Object.
func (b *Base) ObjectKind() Kind { return b.kind }

// Label implements Object.
func (b *Base) Label() label.Label { return b.lbl }

// OnRelease registers a hook invoked when the object is deallocated.
// Only one hook is supported; registering again replaces it.
func (b *Base) OnRelease(fn func()) { b.onRel = fn }

func (b *Base) released() {
	if b.onRel != nil {
		b.onRel()
	}
}

// ErrNotFound is returned by Delete for an ID that names no live
// object.
var ErrNotFound = errors.New("kobj: no such object")

// Table allocates IDs and tracks all live objects of one kernel
// instance.
type Table struct {
	next ID
	objs map[ID]Object
	// parent maps each object to the container holding it. The root
	// container has no entry.
	parent map[ID]*Container
	// built is the live census MarkBuilt recorded: the one a restore,
	// which rebuilds the owner, can reproduce.
	built int
}

// NewTable returns an empty object table.
func NewTable() *Table {
	return &Table{
		next:   1,
		objs:   make(map[ID]Object),
		parent: make(map[ID]*Container),
	}
}

// Reset empties the table in place, reusing its maps, so ID allocation
// restarts at 1 exactly as in a fresh table. No release hooks run: the
// caller is discarding the entire previous object population at once
// (the fleet runner recycling a kernel), not deallocating objects.
func (t *Table) Reset() {
	t.next = 1
	clear(t.objs)
	clear(t.parent)
	t.built = 0
}

// MarkBuilt records the live census once the owner has finished
// building: a snapshot saves and loads only while the census equals it.
func (t *Table) MarkBuilt() { t.built = len(t.objs) }

// Register assigns an ID to the object, initializes its Base, and files
// it in the given container. The container may be nil only for the root
// container itself.
func (t *Table) Register(b *Base, kind Kind, lbl label.Label, parent *Container, self Object) ID {
	b.id = t.next
	t.next++
	b.kind = kind
	b.lbl = lbl
	t.objs[b.id] = self
	if parent != nil {
		parent.attach(self)
		t.parent[b.id] = parent
	}
	return b.id
}

// Delete deallocates the object and, if it is a container, everything
// beneath it (paper §3.2: "reserves can be deleted directly or
// indirectly when some ancestor of their container is deleted").
func (t *Table) Delete(id ID) error {
	o, ok := t.objs[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	t.release(o)
	return nil
}

func (t *Table) release(o Object) {
	id := o.ObjectID()
	if _, ok := t.objs[id]; !ok {
		return // already gone (e.g. double-listed during teardown)
	}
	// Tear down children first so release hooks run leaf-to-root.
	if c, ok := o.(*Container); ok {
		for _, child := range c.Children() {
			t.release(child)
		}
		c.children = nil
	}
	if p := t.parent[id]; p != nil {
		p.detach(id)
	}
	delete(t.parent, id)
	delete(t.objs, id)
	o.released()
}

// Container holds references to other kernel objects and controls their
// lifetime.
type Container struct {
	Base
	children map[ID]Object
}

// NewContainer creates a container inside parent (nil for the root) and
// registers it with the table.
func NewContainer(t *Table, parent *Container, lbl label.Label) *Container {
	c := &Container{children: make(map[ID]Object)}
	t.Register(&c.Base, KindContainer, lbl, parent, c)
	return c
}

func (c *Container) attach(o Object) { c.children[o.ObjectID()] = o }
func (c *Container) detach(id ID)    { delete(c.children, id) }

// Children returns the container's direct children sorted by ID, for
// deterministic iteration.
func (c *Container) Children() []Object {
	out := make([]Object, 0, len(c.children))
	for _, o := range c.children {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ObjectID() < out[j].ObjectID() })
	return out
}
