package kobj

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/label"
)

// The paper's §3.1: "[HiStar's] segments, threads, address spaces, and
// devices are similar to those of conventional kernels." Threads live in
// internal/sched and devices in their own packages; this file supplies
// segments and address spaces so the process model is complete —
// energywrap's fork/exec and the gate mechanism ("the calling thread
// itself enters the server's address space", §5.5.1) operate over these
// objects.

// ErrSegmentBounds reports an out-of-range segment access.
var ErrSegmentBounds = errors.New("kobj: segment access out of bounds")

// ErrMapped reports an address-space mapping conflict.
var ErrMapped = errors.New("kobj: range already mapped")

// Segment is a labelled, resizable byte region.
type Segment struct {
	Base
	data []byte
}

// NewSegment allocates a zeroed segment of the given size in parent.
func NewSegment(t *Table, parent *Container, size int, lbl label.Label) *Segment {
	s := &Segment{data: make([]byte, size)}
	t.Register(&s.Base, KindSegment, lbl, parent, s)
	return s
}

// Size returns the segment length in bytes.
func (s *Segment) Size() int { return len(s.data) }

// Resize grows or shrinks the segment, preserving contents.
func (s *Segment) Resize(size int) {
	if size < 0 {
		panic("kobj: negative segment size")
	}
	next := make([]byte, size)
	copy(next, s.data)
	s.data = next
}

// Read copies from the segment at off after an observe check.
func (s *Segment) Read(p label.Priv, off int, dst []byte) (int, error) {
	if !p.CanObserve(s.Label()) {
		return 0, fmt.Errorf("kobj: read segment %d: label check failed", s.ObjectID())
	}
	if off < 0 || off >= len(s.data) {
		return 0, fmt.Errorf("%w: off %d, size %d", ErrSegmentBounds, off, len(s.data))
	}
	return copy(dst, s.data[off:]), nil
}

// Write copies into the segment at off after a modify check.
func (s *Segment) Write(p label.Priv, off int, src []byte) (int, error) {
	if !p.CanModify(s.Label()) {
		return 0, fmt.Errorf("kobj: write segment %d: label check failed", s.ObjectID())
	}
	if off < 0 || off+len(src) > len(s.data) {
		return 0, fmt.Errorf("%w: [%d,%d), size %d", ErrSegmentBounds, off, off+len(src), len(s.data))
	}
	return copy(s.data[off:], src), nil
}

// Mapping is one segment mapped at a virtual address range.
type Mapping struct {
	VA       uint64
	Len      int
	Segment  *Segment
	Writable bool
}

// AddressSpace maps segments at virtual addresses. Gate entry switches a
// thread's address space; the simulation models the switch itself (and
// its billing consequences) rather than byte-level paging.
type AddressSpace struct {
	Base
	maps []Mapping
}

// NewAddressSpace creates an empty address space in parent.
func NewAddressSpace(t *Table, parent *Container, lbl label.Label) *AddressSpace {
	as := &AddressSpace{}
	t.Register(&as.Base, KindSegment, lbl, parent, as)
	return as
}

// Map installs a segment at va. Ranges must not overlap.
func (as *AddressSpace) Map(p label.Priv, va uint64, seg *Segment, writable bool) error {
	if !p.CanModify(as.Label()) {
		return fmt.Errorf("kobj: map: label check failed")
	}
	if writable && !p.CanModify(seg.Label()) {
		return fmt.Errorf("kobj: map writable: label check failed on segment")
	}
	if !p.CanObserve(seg.Label()) {
		return fmt.Errorf("kobj: map: cannot observe segment")
	}
	m := Mapping{VA: va, Len: seg.Size(), Segment: seg, Writable: writable}
	for _, ex := range as.maps {
		if va < ex.VA+uint64(ex.Len) && ex.VA < va+uint64(m.Len) {
			return fmt.Errorf("%w: [%#x,%#x) vs [%#x,%#x)", ErrMapped,
				va, va+uint64(m.Len), ex.VA, ex.VA+uint64(ex.Len))
		}
	}
	as.maps = append(as.maps, m)
	sort.Slice(as.maps, func(i, j int) bool { return as.maps[i].VA < as.maps[j].VA })
	return nil
}

// Unmap removes the mapping starting at va.
func (as *AddressSpace) Unmap(p label.Priv, va uint64) error {
	if !p.CanModify(as.Label()) {
		return fmt.Errorf("kobj: unmap: label check failed")
	}
	for i, m := range as.maps {
		if m.VA == va {
			as.maps = append(as.maps[:i], as.maps[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("kobj: unmap: no mapping at %#x", va)
}

// Lookup resolves a virtual address to its mapping.
func (as *AddressSpace) Lookup(va uint64) (Mapping, bool) {
	i := sort.Search(len(as.maps), func(i int) bool {
		return as.maps[i].VA+uint64(as.maps[i].Len) > va
	})
	if i < len(as.maps) && as.maps[i].VA <= va {
		return as.maps[i], true
	}
	return Mapping{}, false
}

// ResidentBytes sums the mapped segment sizes — the quota a container
// hierarchy would account for.
func (as *AddressSpace) ResidentBytes() int {
	n := 0
	for _, m := range as.maps {
		n += m.Len
	}
	return n
}
