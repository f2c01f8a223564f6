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

// NilID is the zero, never-allocated object ID.
const NilID ID = 0

// Kind enumerates the first-class object types of the Cinder kernel.
type Kind uint8

const (
	KindContainer Kind = iota
	KindThread
	KindGate
	KindReserve
	KindTap
	KindSegment
	KindDevice
)

var kindNames = [...]string{
	KindContainer: "container",
	KindThread:    "thread",
	KindGate:      "gate",
	KindReserve:   "reserve",
	KindTap:       "tap",
	KindSegment:   "segment",
	KindDevice:    "device",
}

// String returns the kind's lower-case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

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

// SetLabel replaces the object's label. The caller is responsible for
// the access-control check.
func (b *Base) SetLabel(l label.Label) { b.lbl = l }

// OnRelease registers a hook invoked when the object is deallocated.
// Only one hook is supported; registering again replaces it.
func (b *Base) OnRelease(fn func()) { b.onRel = fn }

func (b *Base) released() {
	if b.onRel != nil {
		b.onRel()
	}
}

// Errors returned by table and container operations.
var (
	ErrNotFound    = errors.New("kobj: no such object")
	ErrDead        = errors.New("kobj: object has been deallocated")
	ErrKind        = errors.New("kobj: object has unexpected kind")
	ErrNotEmptyRef = errors.New("kobj: object still referenced")
)

// Table allocates IDs and tracks all live objects of one kernel
// instance.
type Table struct {
	next ID
	objs map[ID]Object
	// parent maps each object to the container holding it. The root
	// container has no entry.
	parent map[ID]*Container
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
}

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

// Lookup returns the live object with the given ID.
func (t *Table) Lookup(id ID) (Object, error) {
	o, ok := t.objs[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return o, nil
}

// Live reports whether the object with the given ID is still allocated.
func (t *Table) Live(id ID) bool {
	_, ok := t.objs[id]
	return ok
}

// Count returns the number of live objects.
func (t *Table) Count() int { return len(t.objs) }

// CountKind returns the number of live objects of the given kind.
func (t *Table) CountKind(k Kind) int {
	n := 0
	for _, o := range t.objs {
		if o.ObjectKind() == k {
			n++
		}
	}
	return n
}

// Parent returns the container holding the object, or nil for the root.
func (t *Table) Parent(id ID) *Container { return t.parent[id] }

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
	name     string
	children map[ID]Object
}

// NewContainer creates a container inside parent (nil for the root) and
// registers it with the table.
func NewContainer(t *Table, parent *Container, name string, lbl label.Label) *Container {
	c := &Container{name: name, children: make(map[ID]Object)}
	t.Register(&c.Base, KindContainer, lbl, parent, c)
	return c
}

// Name returns the container's diagnostic name.
func (c *Container) Name() string { return c.name }

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

// Len returns the number of direct children.
func (c *Container) Len() int { return len(c.children) }

// String renders the container for diagnostics.
func (c *Container) String() string {
	return fmt.Sprintf("container(%d %q, %d children)", c.ObjectID(), c.name, len(c.children))
}

// AsKind looks up id in the table and checks its kind, a convenience for
// syscall-style entry points.
func AsKind(t *Table, id ID, k Kind) (Object, error) {
	o, err := t.Lookup(id)
	if err != nil {
		return nil, err
	}
	if o.ObjectKind() != k {
		return nil, fmt.Errorf("%w: id %d is %v, want %v", ErrKind, id, o.ObjectKind(), k)
	}
	return o, nil
}
