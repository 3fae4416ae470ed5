package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// The traced run's CPU profile is folded into per-layer CPU time. Each sample
// goes to the innermost frame inside sharper/internal/..., named by package
// (internal/core is split by file, see layerOf). Samples with no such frame go
// to the harness when the benchmark's own code is on the stack, to the
// runtime when the sampled frame is the Go runtime's (GC, scheduler, netpoll),
// and to "other" otherwise.

// cpuLayers is the fixed list of layers reported as cpu.<layer>_us_per_tx.
var cpuLayers = []string{
	"core.gateway", "mempool", "transport", "types", "crypto", "paxos", "pbft",
	"consensus", "core.cross", "core.exec", "state", "storage", "ledger",
	"obs", "core.node", "runtime", "harness", "other",
}

const internalPrefix = "sharper/internal/"

// layerOf maps one frame (function name, source file) to its layer, or ""
// when the frame is outside sharper/internal.
func layerOf(fn, file string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case "core":
		base := filepath.Base(file)
		switch {
		case strings.HasPrefix(base, "gateway"):
			return "core.gateway"
		case base == "exec.go":
			return "core.exec"
		case strings.HasPrefix(base, "cross"):
			return "core.cross"
		default:
			return "core.node"
		}
	case "workload":
		return "harness" // the benchmark's input generator
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// frame is one (possibly inlined) function in a sampled stack.
type frame struct{ fn, file string }

// classify assigns a stack, innermost frame first, to a layer.
func classify(stack []frame) string {
	harness := false
	for _, f := range stack {
		if l := layerOf(f.fn, f.file); l != "" {
			return l
		}
		// The benchmark is package main; its tests see the import path.
		if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, "sharper/perfbench.") {
			harness = true
		}
	}
	switch {
	case harness:
		return "harness"
	case len(stack) > 0 && isRuntime(stack[0].fn):
		return "runtime"
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// foldProfile parses a gzipped pprof CPU profile (as runtime/pprof writes it)
// and returns CPU nanoseconds per layer.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		var stack []frame
		for _, id := range s.locs {
			for _, fid := range p.locations[id] {
				f := p.functions[fid]
				stack = append(stack, frame{fn: p.str(f.name), file: p.str(f.file)})
			}
		}
		out[classify(stack)] += s.cpuNs
	}
	return out, nil
}

// The subset of profile.proto the fold needs.
type (
	pbSample struct {
		locs  []uint64
		cpuNs int64
	}
	pbFunction struct{ name, file int64 }
	pbProfile  struct {
		samples   []pbSample
		locations map[uint64][]uint64 // location id → function ids, innermost first
		functions map[uint64]pbFunction
		strings   []string
	}
)

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: its number, and either a varint
// value or a length-delimited body.
type pbField struct {
	num  int
	v    uint64
	body []byte
}

// pbFields splits one protobuf message into fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.v, b = v, b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.body, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, f pbField) ([]uint64, error) {
	if f.body == nil {
		return append(dst, f.v), nil
	}
	b := f.body
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func parseProfile(raw []byte) (*pbProfile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{locations: make(map[uint64][]uint64), functions: make(map[uint64]pbFunction)}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.body)
			if err != nil {
				return nil, err
			}
			var s pbSample
			var vals []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if s.locs, err = varints(s.locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = varints(vals, sf); err != nil {
						return nil, err
					}
				}
			}
			// CPU profiles carry [samples, cpu nanoseconds].
			if len(vals) > 0 {
				s.cpuNs = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			fs, err := pbFields(f.body)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fids []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line
					lfs, err := pbFields(lf.body)
					if err != nil {
						return nil, err
					}
					for _, x := range lfs {
						if x.num == 1 {
							fids = append(fids, x.v)
						}
					}
				}
			}
			p.locations[id] = fids
		case 5: // Function
			fs, err := pbFields(f.body)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fn pbFunction
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					fn.name = int64(ff.v)
				case 4:
					fn.file = int64(ff.v)
				}
			}
			p.functions[id] = fn
		case 6: // string_table
			p.strings = append(p.strings, string(f.body))
		}
	}
	return p, nil
}
