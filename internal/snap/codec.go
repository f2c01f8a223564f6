package snap

import "fmt"

// Codec runs one field list in either direction. A checkpointed
// component declares its state once, in a single method taking a
// *Codec: on save every call writes the pointed-to value through a
// Writer; on load the same call reads the stored value back into the
// same pointer through a Reader. Save and load therefore cannot drift
// apart — the field list is the layout.
//
// Structural values — names, counts, capacities, presence flags, the
// things a rebuilt device re-creates rather than restores — go through
// the Same* checks instead: written on save, and on load required to
// equal the rebuilt value, failing with the section, the field and both
// values. Code that is not the mirror of the save (pruning, tombstones,
// derived indexes) runs under Loading.
//
// Errors latch: after the first failure every call is a no-op and
// leaves its pointer untouched.
type Codec struct {
	w   *Writer
	r   *Reader
	tag string // the current section, naming structural mismatches
}

// Integer is any integer type a field may have.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Save runs code over a saving codec and returns the finished snapshot.
func Save(code func(*Codec)) ([]byte, error) {
	c := Codec{w: NewWriter()}
	code(&c)
	return c.w.Finish()
}

// Load opens a snapshot and runs code over a loading codec. The code
// must consume the stream exactly; the first open, read or check
// failure is returned.
func Load(b []byte, code func(*Codec)) error {
	r, err := Open(b)
	if err != nil {
		return err
	}
	c := Codec{r: r}
	code(&c)
	return r.Close()
}

// Loading reports whether the codec is reading a snapshot back.
func (c *Codec) Loading() bool { return c.r != nil }

// Err returns the first error, if any.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.err
	}
	return c.w.err
}

// ok reports whether a load may still assign: no error has latched.
func (c *Codec) ok() bool { return c.r.err == nil }

// Failf refuses the load with a descriptive error. It is a no-op once
// an error has latched, and on save.
func (c *Codec) Failf(format string, args ...any) {
	if c.r != nil {
		c.r.fail(fmt.Errorf(format, args...))
	}
}

// Section starts (on save) or validates (on load) a named section.
func (c *Codec) Section(tag string) {
	c.tag = tag
	if c.r != nil {
		c.r.Section(tag)
	} else {
		c.w.Section(tag)
	}
}

// Int codes a signed field as a zig-zag varint.
func Int[T Integer](c *Codec, p *T) {
	if c.r == nil {
		c.w.I64(int64(*p))
		return
	}
	if v := c.r.I64(); c.ok() {
		*p = T(v)
	}
}

// Uint codes a non-negative field as an unsigned varint.
func Uint[T Integer](c *Codec, p *T) {
	if c.r == nil {
		c.w.U64(uint64(*p))
		return
	}
	if v := c.r.U64(); c.ok() {
		*p = T(v)
	}
}

// Bool codes a boolean field.
func (c *Codec) Bool(p *bool) {
	if c.r == nil {
		c.w.Bool(*p)
		return
	}
	if v := c.r.Bool(); c.ok() {
		*p = v
	}
}

// String codes a string field.
func (c *Codec) String(p *string) {
	if c.r == nil {
		c.w.String(*p)
		return
	}
	if v := c.r.String(); c.ok() {
		*p = v
	}
}

// Bytes codes a byte-slice field. A loaded slice aliases the snapshot.
func (c *Codec) Bytes(p *[]byte) {
	if c.r == nil {
		c.w.Bytes(*p)
		return
	}
	if v := c.r.Bytes(); c.ok() {
		*p = v
	}
}

// Count codes the length of a variable-length list: on save it writes n
// and returns it; on load it returns the stored length, refusing one
// longer than the unread stream (every element takes at least a byte),
// and 0 after an error.
func (c *Codec) Count(n int) int {
	if c.r == nil {
		c.w.U64(uint64(n))
		return n
	}
	v := c.r.U64()
	if !c.ok() {
		return 0
	}
	if v > uint64(c.r.end-c.r.pos) {
		c.r.fail(fmt.Errorf("%w: %s: list of %d entries with %d bytes left", ErrTruncated, c.tag, v, c.r.end-c.r.pos))
		return 0
	}
	return int(v)
}

// mismatch refuses a load whose stored structural value differs from the
// rebuilt one, naming the current section, as in "engine: restore:
// snapshot mode fixed-tick, engine mode next-event". Only this failure
// path formats or boxes.
func (c *Codec) mismatch(what string, got, have any) {
	c.Failf("%s: restore: snapshot %s %v, %s %s %v", c.tag, what, got, c.tag, what, have)
}

// SameInt codes a signed structural value: written on save, required on
// load to equal have.
func SameInt[T Integer](c *Codec, what string, have T) {
	if c.r == nil {
		c.w.I64(int64(have))
		return
	}
	if v := T(c.r.I64()); c.ok() && v != have {
		c.mismatch(what, v, have)
	}
}

// SameUint codes a non-negative structural value (a count, an index, an
// enum): written on save, required on load to equal have.
func SameUint[T Integer](c *Codec, what string, have T) {
	if c.r == nil {
		c.w.U64(uint64(have))
		return
	}
	if v := T(c.r.U64()); c.ok() && v != have {
		c.mismatch(what, v, have)
	}
}

// SameBool codes a structural flag, such as a component's presence.
func (c *Codec) SameBool(what string, have bool) {
	if c.r == nil {
		c.w.Bool(have)
		return
	}
	if v := c.r.Bool(); c.ok() && v != have {
		c.mismatch(what, v, have)
	}
}

// SameString codes a structural name.
func (c *Codec) SameString(what string, have string) {
	if c.r == nil {
		c.w.String(have)
		return
	}
	if v := c.r.String(); c.ok() && v != have {
		c.mismatch(what, fmt.Sprintf("%q", v), fmt.Sprintf("%q", have))
	}
}

// Name codes the name of entry i of a structural list (a reserve, a
// task, a thread): the rebuilt list must hold the same names in the
// same order.
func (c *Codec) Name(list string, i int, have string) {
	if c.r == nil {
		c.w.String(have)
		return
	}
	if v := c.r.String(); c.ok() && v != have {
		c.mismatch(fmt.Sprintf("%s %d", list, i), fmt.Sprintf("%q", v), fmt.Sprintf("%q", have))
	}
}
