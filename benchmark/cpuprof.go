package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the gzip'd profile.proto that runtime/pprof
// writes, enough to attribute CPU samples to packages without a module
// dependency. Only the fields attribution needs are decoded:
//
//	Profile:  sample=2 location=4 function=5 string_table=6
//	Sample:   location_id=1 value=2
//	Location: id=1 line=4      Line: function_id=1
//	Function: id=1 name=2

// profSample is one stack with its CPU nanoseconds (the last value of
// a CPU profile's samples).
type profSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	value int64
}

// protoField is one decoded field of a message.
type protoField struct {
	num    int
	varint uint64
	bytes  []byte // length-delimited payload, nil for varints
}

var errProto = errors.New("malformed profile.proto")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// protoFields splits a message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.varint, b, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || n > uint64(len(rest)) {
				return nil, errProto
			}
			f.bytes, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(f protoField, dst []uint64) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a pprof CPU profile into stacks of function
// names.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs []uint64
		val  int64
	}
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.bytes))
		case 5:
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.varint
				case 2:
					name = x.varint
				}
			}
			funcName[id] = name
		case 4:
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.varint
				case 4:
					ls, err := protoFields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			locFuncs[id] = fns // innermost inlined function first
		case 2:
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s rawSample
			var vals []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					if s.locs, err = repeatedVarints(x, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeatedVarints(x, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.val = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{value: s.val}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: string index %d of %d", errProto, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// funcPackage extracts the import path from a symbol name such as
// "sdm/internal/core.(*Group).stagePuts" or "runtime.memmove".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuBuckets are the cpu.*_pct metrics, in print order.
var cpuBuckets = []string{"core", "mpiio", "mpi", "pfs", "store", "metadb", "catalog", "server", "nethttp", "runtime", "bench"}

// bucketOf maps a package to its bucket; "" means the package is
// neutral (a library whose time belongs to whoever called it).
func bucketOf(pkg string) string {
	switch {
	case pkg == "sdm/internal/core":
		return "core"
	case pkg == "sdm/internal/mpiio":
		return "mpiio"
	case pkg == "sdm/internal/mpi":
		return "mpi"
	case pkg == "sdm/internal/pfs":
		return "pfs"
	case pkg == "sdm" || strings.HasPrefix(pkg, "sdm/internal/store"):
		return "store" // the bundle layer is the store's only caller
	case pkg == "sdm/internal/metadb":
		return "metadb"
	case pkg == "sdm/internal/catalog":
		return "catalog"
	case pkg == "sdm/internal/server" || pkg == "sdm/sdmclient" || pkg == "sdm/internal/wire":
		return "server"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "mime" || strings.HasPrefix(pkg, "mime/") ||
		pkg == "crypto/tls" || strings.HasPrefix(pkg, "vendor/golang.org/x/net"):
		return "nethttp"
	case pkg == "main" || strings.HasPrefix(pkg, "sdm/benchmark") || pkg == "testing" ||
		pkg == "sdm/internal/workloads" || pkg == "sdm/internal/mesh" || pkg == "sdm/internal/partition":
		return "bench" // the benchmark, its application drivers and input generators
	}
	return ""
}

// attributeCPU charges every sample to the first frame, walking from
// the leaf towards the root, whose package has a bucket. Library time
// (math, compress/flate, crypto/sha256, memmove, allocation, sim
// clocks, obs spans) is thereby charged to the SDM package that called
// it, network stacks to nethttp, and stacks with no such frame at all —
// garbage collection and the scheduler — to runtime. The result is
// each bucket's percentage of all samples.
func attributeCPU(samples []profSample) map[string]float64 {
	sum := map[string]int64{}
	var total int64
	for _, s := range samples {
		bucket := "runtime"
		for _, fn := range s.stack {
			if b := bucketOf(funcPackage(fn)); b != "" {
				bucket = b
				break
			}
		}
		sum[bucket] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = 100 * float64(sum[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out
}
