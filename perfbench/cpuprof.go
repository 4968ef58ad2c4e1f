package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuGroups are the package groups the CPU profile is reported by: the
// repository's layers, plus the Go runtime's garbage collector.
var cpuGroups = []string{
	"sqldriver", "wire", "shard", "middleware", "core", "server", "engine",
	"sql", "qgen", "difftest", "metamorph", "runtime_gc",
}

// gcRoots are runtime functions whose presence anywhere on a stack makes
// the sample garbage-collection work (background marking, mutator
// assists, sweeping, scavenging).
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.markroot":       true,
}

// groupOf maps a fully qualified function name to its package group:
// divsql/internal/<layer>/... and divsql/<layer> map to <layer>; anything
// else is "other".
func groupOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic shape arguments may hold '/' or '.'
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	rest, ok := strings.CutPrefix(pkg, "divsql/")
	if !ok {
		return "other"
	}
	rest = strings.TrimPrefix(rest, "internal/")
	layer, _, _ := strings.Cut(rest, "/")
	for _, g := range cpuGroups {
		if g == layer {
			return g
		}
	}
	return "other"
}

// profile is the part of a pprof profile the grouping needs: each
// sample's stack as function names, leaf first, and its sample count.
type profile struct {
	stacks [][]string
	counts []int64
}

// groupShares returns each group's share of all samples by self (leaf)
// time, with GC work attributed to runtime_gc whatever its leaf, plus
// the total sample count.
func (p *profile) groupShares() (map[string]float64, int64) {
	byGroup := map[string]int64{}
	var total int64
	for i, st := range p.stacks {
		n := p.counts[i]
		total += n
		g := "other"
		if len(st) > 0 {
			g = groupOf(st[0])
		}
		for _, fn := range st {
			if gcRoots[fn] {
				g = "runtime_gc"
				break
			}
		}
		byGroup[g] += n
	}
	shares := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		shares[g] = ratio(float64(byGroup[g]), float64(total))
	}
	return shares, total
}

func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return parseProfile(data)
}

// parseProfile decodes the fields of a profile.proto message that map
// samples to function names: Profile.sample (2), .location (4),
// .function (5) and .string_table (6).
func parseProfile(data []byte) (*profile, error) {
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.values[0])
	}
	return p, nil
}

// appendVarints decodes a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("cpu profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field's number,
// wire type and either its varint value or its length-delimited bytes.
func fields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
