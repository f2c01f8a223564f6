package snap

import (
	"crypto/md5"
	"encoding/hex"
	"math"
	"testing"
)

// pinned is a fixed field list over every kind of field the codec
// writes: signed integers at both ends of the range and across varint
// length boundaries, unsigned ones up to the full 64 bits, booleans,
// strings, byte slices, sections, counts and structural names.
type pinned struct {
	ints  [8]int64
	uints [6]uint64
	flags [2]bool
	text  string
	blob  []byte
	names []string
}

func newPinned() pinned {
	return pinned{
		ints:  [8]int64{0, -1, 63, -64, 64, -300_000, math.MaxInt64, math.MinInt64},
		uints: [6]uint64{0, 127, 128, 1 << 35, math.MaxUint32, math.MaxUint64},
		flags: [2]bool{true, false},
		text:  "héllo, snapshot",
		blob:  []byte{0, 1, 0xFF, 0x80, 7},
		names: []string{"", "radio", "a-much-longer-reserve-name-than-usual"},
	}
}

func (p *pinned) codec(c *Codec) {
	c.Section("ints")
	for i := range p.ints {
		Int(c, &p.ints[i])
	}
	SameInt(c, "offset", int32(-17))
	c.Section("uints")
	for i := range p.uints {
		Uint(c, &p.uints[i])
	}
	SameUint(c, "slots", uint16(300))
	c.Section("misc")
	c.Bool(&p.flags[0])
	c.Bool(&p.flags[1])
	c.SameBool("present", true)
	c.String(&p.text)
	c.Bytes(&p.blob)
	c.SameString("mode", "next-event")
	c.Section("names")
	n := c.Count(len(p.names))
	for i := 0; i < n; i++ {
		c.Name("reserve", i, p.names[i])
	}
}

// TestWriterBytesPinned pins the bytes Save writes for one fixed field
// list, so a change to how the writer encodes or checksums a field
// cannot move the snapshot layout unnoticed. The same list loads back
// to the values it was saved from.
func TestWriterBytesPinned(t *testing.T) {
	const pin = "1755c695ce2060a2a5adf6045b632c57"
	src := newPinned()
	b, err := Save(src.codec)
	if err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(b)
	if got := hex.EncodeToString(sum[:]); got != pin {
		t.Fatalf("snapshot md5 %s (%d bytes), pinned %s", got, len(b), pin)
	}

	dst := pinned{names: src.names}
	if err := Load(b, dst.codec); err != nil {
		t.Fatal(err)
	}
	if dst.ints != src.ints || dst.uints != src.uints || dst.flags != src.flags ||
		dst.text != src.text || string(dst.blob) != string(src.blob) {
		t.Fatalf("loaded %+v, saved %+v", dst, src)
	}
}

// allocFields is a device-sized field list: 10 sections, each with 12
// structural names and 100 integers.
type allocFields struct {
	names [12]string
	ints  [10][100]int64
}

func (f *allocFields) codec(c *Codec) {
	for s := range f.ints {
		c.Section(sectionTags[s])
		for i, name := range f.names {
			if i%2 == 0 {
				c.Name("task", i, name)
			} else {
				c.SameString("mode", name)
			}
		}
		for i := range f.ints[s] {
			Int(c, &f.ints[s][i])
		}
	}
}

var sectionTags = [10]string{"engine", "objects", "graph", "sched", "kernel", "charger", "radio", "netd", "baseband", "trace"}

// TestCodecAllocs bounds the codec's allocations for a whole snapshot:
// a field costs none, so Save allocates only its writer and the growth
// of one buffer, and Load only its reader and codec.
func TestCodecAllocs(t *testing.T) {
	var f allocFields
	for i := range f.names {
		f.names[i] = sectionTags[i%len(sectionTags)] + "-worker"
	}
	for s := range f.ints {
		for i := range f.ints[s] {
			f.ints[s][i] = int64(s*1_000_003 - i*i*7919)
		}
	}
	code := f.codec
	var b []byte
	save := testing.AllocsPerRun(20, func() {
		var err error
		if b, err = Save(code); err != nil {
			t.Fatal(err)
		}
	})
	load := testing.AllocsPerRun(20, func() {
		if err := Load(b, code); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Save: %.0f allocs, Load: %.0f allocs (%d bytes)", save, load, len(b))
	if save > 10 || load > 2 {
		t.Fatalf("Save made %.0f allocations (ceiling 10), Load %.0f (ceiling 2)", save, load)
	}
}

// TestSaveRefusal: a Failf on a saving codec ends the save with that
// refusal and returns no snapshot, as a load would fail on the same
// check.
func TestSaveRefusal(t *testing.T) {
	code := func(c *Codec) {
		c.Section("refuser")
		live := 3
		Uint(c, &live)
		if live != 2 {
			c.Failf("refuser: %d live, 2 at build", live)
		}
		t.Error("the save ran on past its refusal")
	}
	b, err := Save(code)
	if b != nil || err == nil || err.Error() != "refuser: 3 live, 2 at build" {
		t.Fatalf("Save = %d bytes, %v; want no bytes and the refusal", len(b), err)
	}
}
