// Package usecheck holds one case per field rule of
// TestNoTestOnlyExports; TestUseCheckerFieldRules lists the fields it
// must report. Nothing builds or imports it: the check type-checks it
// from source.
package usecheck

import (
	"fmt"

	"repro/internal/snap"
)

// counters holds fields that are only stored, carried by the codec or
// read by a String nothing formats, and two that are read.
type counters struct {
	deadCount int   // incremented only
	deadMax   int   // updated from itself only
	deadList  []int // appended to itself only
	deadSaved int   // saved and loaded by the codec only
	deadSame  int   // checked by snap.SameInt only
	deadShown int   // read by String, which nothing formats
	liveRead  int
	liveCarry int64 // read on a right-hand side that feeds another value
}

func (c *counters) tick(v int) (int, int64) {
	c.deadCount++
	c.deadMax = max(c.deadMax, v)
	c.deadList = append(c.deadList, v)
	var total int64
	total, c.liveCarry = split(c.liveCarry + int64(v))
	return c.liveRead, total
}

func split(x int64) (int64, int64) { return x / 1000, x % 1000 }

func (c *counters) codec(cd *snap.Codec) {
	snap.Int(cd, &c.deadSaved)
	snap.SameInt(cd, "same", c.deadSame)
}

func (c *counters) String() string { return fmt.Sprint(c.deadShown) }

// key is compared with ==, so both its fields are read.
type key struct{ liveA, liveB int }

func sameKey(a, b key) bool { return a == b }

// mapKey keys a map.
type mapKey struct{ liveK int }

var index map[mapKey]int

// wire is encoded by its json tags.
type wire struct {
	Live int `json:"live"`
}

// whole is formatted field by field.
type whole struct{ liveWhole int }

// named is formatted through its String.
type named struct{ liveName string }

func (n named) String() string { return n.liveName }

func show() string { return fmt.Sprintf("%+v %v", whole{}, named{}) }

// deadStringer has a String nothing formats, though it satisfies
// fmt.Stringer.
type deadStringer int

func (d deadStringer) String() string { return "dead" }

func nonzero(d deadStringer) bool { return d != 0 }

// shape is an interface; formatting a shape formats every type that
// implements it, liveShape among them.
type shape interface{ sides() int }

type liveShape struct{}

func (liveShape) sides() int     { return 3 }
func (liveShape) String() string { return "triangle" }

func describe(s shape) string { return fmt.Sprint(s) }

// liveMode is formatted by a snap.SameUint load mismatch.
type liveMode uint8

func (m liveMode) String() string { return "mode" }

func checkMode(cd *snap.Codec, m liveMode) { snap.SameUint(cd, "mode", m) }
