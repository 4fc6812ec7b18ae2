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

// Folding CPU profiles into layer shares. runtime/pprof writes a gzipped
// profile.proto; this file decodes the few fields the fold needs (samples,
// locations, functions and the string table) with a minimal protobuf
// reader, since the repository takes no dependencies.

// shareModules are the folds reported as share.<module>: the simulator's
// layers, then samples with no swex frame, split into GC and scheduler.
var shareModules = []string{
	"sim", "proc", "cache", "proto", "dir", "ext", "mesh", "memtier",
	"machine", "apps", "shm", "sweep", "litmus", "mc", "gc", "sched",
}

// gcFrames mark a sample with no swex frame as collector work.
var gcFrames = []string{
	"runtime.gc", "runtime.(*gc", "runtime.markroot", "runtime.scanobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.(*scavengerState)",
}

// shares is the CPU time of a set of profiles by fold.
type shares struct {
	ns      map[string]int64
	total   int64
	samples int
}

func (s shares) frac(mod string) float64 { return ratio(float64(s.ns[mod]), float64(s.total)) }

// profileShares folds every sample of the profiles into one module: the
// innermost frame of a listed swex/internal package, so stdlib frames such
// as container/heap or mallocgc count toward their swex caller. Samples
// with no such frame are gc when a collector frame is on the stack and
// sched otherwise (the scheduler, thread handoff, and the benchmark's own
// few samples). The folds therefore sum to the whole profile.
func profileShares(profiles [][]byte) (shares, error) {
	listed := map[string]bool{}
	for _, m := range shareModules {
		listed[m] = true
	}
	s := shares{ns: map[string]int64{}}
	for _, raw := range profiles {
		p, err := parseProfile(raw)
		if err != nil {
			return s, err
		}
		for _, smp := range p.samples {
			mod := ""
			gc := false
		frames:
			for _, loc := range smp.locs {
				for _, fn := range p.locs[loc] {
					name := p.strs[p.funcs[fn]]
					if pkg, ok := swexPackage(name); ok && listed[pkg] {
						mod = pkg
						break frames
					}
					for _, g := range gcFrames {
						gc = gc || strings.HasPrefix(name, g)
					}
				}
			}
			if mod == "" {
				mod = "sched"
				if gc {
					mod = "gc"
				}
			}
			s.ns[mod] += smp.ns
			s.total += smp.ns
			s.samples++
		}
	}
	return s, nil
}

// swexPackage extracts the package from a function name such as
// "swex/internal/sim.(*Engine).Step".
func swexPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "swex/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// profile is the decoded subset of a CPU profile.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

type profSample struct {
	locs []uint64 // leaf first
	ns   int64
}

func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = pbFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var values []uint64
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, d, &s.locs)
				case 2:
					return pbRepeated(v, d, &values)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples, nanoseconds].
			if len(values) != 2 {
				return errors.New("cpu profile: sample without [count, ns] values")
			}
			s.ns = int64(values[1])
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.funcs {
		if name < 0 || name >= int64(len(p.strs)) {
			return nil, errors.New("cpu profile: function name out of range")
		}
	}
	return p, nil
}

// pbFields calls fn for every field of a protobuf message: varint and
// fixed fields pass their value, length-delimited ones their bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field, packed (data) or not (v).
func pbRepeated(v uint64, data []byte, out *[]uint64) error {
	if data == nil {
		*out = append(*out, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		*out = append(*out, x)
		data = data[n:]
	}
	return nil
}

// printShares writes the fold table to stderr.
func printShares(s shares) {
	for _, m := range shareModules {
		fmt.Fprintf(os.Stderr, "perfbench: share %-8s %6.2f%%\n", m, 100*s.frac(m))
	}
}
