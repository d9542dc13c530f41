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

// profile is the part of a pprof profile the attribution needs: each
// sample's stack as function names, leaf first, and its values.
type profile struct {
	types   []string // sample value types, e.g. "samples", "cpu"
	samples []profSample
}

type profSample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the named sample value type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.types {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q values (types %v)", typ, p.types)
}

// parseProfile decodes a gzipped profile.proto message as written by
// runtime/pprof. Only the fields used here are kept.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		typeIdx  []int64
		rawSamps []struct{ locs, vals []uint64 }
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := eachField(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendUints(s.locs, v, b)
				case 2:
					s.vals, err = appendUints(s.vals, v, b)
				}
				return err
			})
			rawSamps = append(rawSamps, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for _, rs := range rawSamps {
		s := profSample{values: make([]int64, len(rs.vals))}
		for i, v := range rs.vals {
			s.values[i] = int64(v)
		}
		for _, loc := range rs.locs {
			for _, f := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[f]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField calls f for every field of a protobuf message: v is the
// value of a varint field, b the bytes of a length-delimited one.
func eachField(data []byte, f func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		var (
			v uint64
			b []byte
		)
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed (b set) or not.
func appendUints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// pkgOf returns the import path of a symbol such as
// "repro/internal/core.(*Subsystem).Run".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}
