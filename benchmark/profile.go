package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file decodes the runtime/pprof CPU profile format (gzipped
// protobuf, profile.proto) with the standard library only, keeping just
// what layer bucketing needs: every sample's CPU time and its stack of
// (function, file) frames, leaf first.

// frame is one function on a sampled stack.
type frame struct{ fn, file string }

// cpuSample is one profile sample: a distinct stack and the CPU time
// spent in it.
type cpuSample struct {
	stack []frame
	cpuNS int64
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type line struct{ fn uint64 }
	var (
		samples     []rawSample
		sampleTypes []int64 // string index of each value's type
		locs        = map[uint64][]line{}
		funcs       = map[uint64][2]int64{} // name, filename string indices
		strs        []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return varints(v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, p, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []line
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l line
					err := fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // function
			var id uint64
			var nf [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					nf[0] = int64(v)
				case 4:
					nf[1] = int64(v)
				}
				return nil
			})
			funcs[id] = nf
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if s, err := str(t); err == nil && s == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{cpuNS: s.values[cpuIdx]}
		for _, id := range s.locs {
			// A location's lines run from the innermost inlined
			// function outwards, matching the leaf-first stack.
			for _, l := range locs[id] {
				nf := funcs[l.fn]
				name, err := str(nf[0])
				if err != nil {
					return nil, err
				}
				file, err := str(nf[1])
				if err != nil {
					return nil, err
				}
				cs.stack = append(cs.stack, frame{fn: name, file: file})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields walks the protobuf fields of msg, passing each field's number
// and either its varint value or its length-delimited payload.
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field's values, packed (payload p)
// or not (single value v).
func varints(v uint64, p []byte, f func(uint64)) error {
	if p == nil {
		f(v)
		return nil
	}
	for len(p) > 0 {
		x, n := uvarint(p)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		f(x)
		p = p[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// namedLayers are the repository packages reported as their own layer;
// any other repository package goes to other_repo.
var namedLayers = map[string]bool{
	"apps": true, "coord": true, "core": true, "fleet": true, "kernel": true,
	"kobj": true, "label": true, "msm": true, "netd": true, "radio": true,
	"sched": true, "sim": true, "units": true,
}

// layerOf charges a stack (leaf first) to its innermost repository
// frame's layer. A stack with no repository frame is runtime when its
// leaf is in the Go runtime and unattributed otherwise.
func layerOf(stack []frame) string {
	for _, f := range stack {
		if l, ok := repoLayer(f); ok {
			return l
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0].fn, "runtime.") {
		return "runtime"
	}
	return "unattributed"
}

// repoLayer maps a repository frame to its layer. The benchmark's own
// frames are named main.* in its binary and repro/benchmark.* in its
// test binary.
func repoLayer(f frame) (string, bool) {
	switch {
	case strings.HasPrefix(f.fn, "main."), strings.HasPrefix(f.fn, "repro/benchmark."):
		return "bench", true
	case !strings.HasPrefix(f.fn, "repro/") && !strings.HasPrefix(f.fn, "repro."):
		return "", false
	case strings.HasSuffix(f.file, "/internal/fleet/checkpoint.go"), path.Base(f.file) == "snapshot.go":
		return "checkpoint", true
	}
	pkg := f.fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	}
	rel, ok := strings.CutPrefix(pkg, "repro/internal/")
	switch {
	case !ok:
		return "other_repo", true
	case rel == "snap":
		return "checkpoint", true
	case rel == "coord/delivery":
		return "delivery", true
	}
	rel, _, _ = strings.Cut(rel, "/")
	if namedLayers[rel] {
		return rel, true
	}
	return "other_repo", true
}

// cpuByLayer sums a profile's CPU seconds per layer.
func cpuByLayer(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.cpuNS) / 1e9
	}
	return out
}
