package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The per-layer CPU shares come from runtime/pprof CPU profiles. The
// standard library writes profiles but exports no reader, so this file
// decodes the few fields of profile.proto the shares need: samples
// (location ids and values), locations (their inlined lines) and
// functions (their names).

const modulePrefix = "ntisim/internal/"

// selfTime is CPU self time grouped by package: the leaf frame of each
// sample is charged to its ntisim/internal/<pkg>; leaves outside the
// module (runtime, standard library) count only towards Total.
type selfTime struct {
	ByPkg map[string]int64 // nanoseconds
	Total int64
}

// pct is pkg's share of all profiled CPU time in percent.
func (s *selfTime) pct(pkg string) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.ByPkg[pkg]) / float64(s.Total)
}

// packageOf maps a pprof function name to its ntisim/internal package
// ("ntisim/internal/sim.(*Simulator).RunUntil" → "sim"), or "" for
// functions outside the module.
func packageOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// profSample is a decoded profile.proto Sample.
type profSample struct {
	locs   []uint64
	values []int64
}

// selfTimeOf decodes a gzipped CPU profile and groups the last sample
// value (CPU nanoseconds) by the package of each sample's leaf frame.
// A location lists its inlined frames innermost first, so the leaf is
// the first line of the first location.
func selfTimeOf(profile []byte) (selfTime, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return selfTime{}, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return selfTime{}, fmt.Errorf("pprof: %w", err)
	}
	var (
		samples  []profSample
		leafFunc = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]int64{}  // function id → string index
		strs     []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && first:
					first = false
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return selfTime{}, err
	}
	st := selfTime{ByPkg: map[string]int64{}}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ns := s.values[len(s.values)-1]
		st.Total += ns
		if len(s.locs) > 0 {
			if i := funcName[leafFunc[s.locs[0]]]; i >= 0 && int(i) < len(strs) {
				if pkg := packageOf(strs[i]); pkg != "" {
					st.ByPkg[pkg] += ns
				}
			}
		}
	}
	return st, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields
// fn gets the value in v; for length-delimited fields the bytes in b.
// Fixed-width fields are skipped (profile.proto's fields used here have
// none).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value
// when unpacked (v), a packed run of varints otherwise (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
