package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// fold sums the CPU time of a runtime/pprof profile by layer. Each
// sample goes to the layer of its first dapper frame walking from the
// leaf (inlined frames included), so runtime helpers such as duffcopy
// or mallocgc count toward the package that called them. Samples with
// no dapper frame count as gc. Dapper packages the layer map does not
// know are returned in unmapped, by package, instead of being guessed.
func fold(profile []byte) (byLayer, unmapped map[string]float64, err error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, nil, err
	}
	byLayer = make(map[string]float64)
	unmapped = make(map[string]float64)
	for _, s := range p.samples {
		secs := float64(s.nanos) / 1e9
		layer, pkg := "gc", ""
	walk:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				name := p.funcs[fn]
				if !strings.HasPrefix(name, "dapper/") {
					continue
				}
				pkg = funcPackage(name)
				layer = layerOf(pkg)
				break walk
			}
		}
		if layer == "" {
			unmapped[pkg] += secs
			continue
		}
		byLayer[layer] += secs
	}
	return byLayer, unmapped, nil
}

// profile is the part of a pprof profile the fold needs: each sample's
// CPU nanoseconds and leaf-first location ids, each location's
// innermost-first function ids, and function names.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64
	funcs     map[uint64]string
}

type sample struct {
	locations []uint64
	nanos     int64
}

// Field numbers of the profile.proto messages read here.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2

	valueTypeType = 1
)

// parseProfile decodes the gzip-compressed protobuf runtime/pprof
// writes. It reads only the fields the fold uses and skips the rest.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs       []string
		typeIdx    []int64 // sample_type[i].type as a string-table index
		rawSamples [][]byte
		funcNames  = make(map[uint64]int64)
		p          = &profile{locations: make(map[uint64][]uint64), funcs: make(map[uint64]string)}
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == valueTypeType {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case profSample:
			rawSamples = append(rawSamples, b)
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case locID:
					id = v
				case locLine:
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range typeIdx {
		if t >= 0 && t < int64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	for id, name := range funcNames {
		if name < 0 || name >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, name, len(strs))
		}
		p.funcs[id] = strs[name]
	}
	for _, b := range rawSamples {
		var s sample
		var values []int64
		err := fields(b, func(n int, v uint64, b []byte) error {
			switch n {
			case sampleLocation:
				return scalars(v, b, func(x uint64) { s.locations = append(s.locations, x) })
			case sampleValue:
				return scalars(v, b, func(x uint64) { values = append(values, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpu >= len(values) {
			return nil, fmt.Errorf("profile: sample has %d values, want > %d", len(values), cpu)
		}
		s.nanos = values[cpu]
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields calls fn for each field of one protobuf message: varint
// fields pass their value in v (b nil), length-delimited fields their
// bytes in b. Fixed-width fields are skipped; the profile has none
// the fold reads.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// scalars decodes a repeated varint field, which the encoder writes
// either packed (one length-delimited run, b non-nil) or as one varint
// per field occurrence (v).
func scalars(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		b = b[n:]
		fn(x)
	}
	return nil
}
