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

// Layers are the modules under internal/ that self time is charged to, plus
// three buckets of the benchmark's own: "bench" (this package), "runtime"
// (samples with no repo frame at all, GC workers aside) and "other"
// (a repo package not listed here). GC background workers are reported
// apart, as runtime.gc_pct.
var layers = []string{
	"sim", "simnet", "openflow", "steer", "srsteer", "core",
	"kube", "docker", "container", "registry", "workload", "obs",
	"catalog", "cluster", "metrics", "spec", "testbed", "faults", "serverless", "yaml",
	"bench", "runtime", "other",
}

const repoPrefix = "transparentedge/internal/"

// layerOf maps a function name to its layer, or "" for a frame that is not
// the repo's (the runtime and standard library, charged to their caller).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// selfShares folds a gzipped CPU profile (runtime/pprof's protobuf output)
// into percent of sampled CPU time per layer. Each sample is charged to its
// innermost repo frame, inlined frames included; a sample with no repo
// frame goes to "gc" when a GC background worker is on its stack and to
// "runtime" otherwise. The shares sum to 100 unless the profile is empty.
func selfShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	weights := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		// The last value is cpu/nanoseconds; the first counts samples.
		w := s.values[len(s.values)-1]
		charged, gc := "", false
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.str(p.funcNames[fn])
				if l := layerOf(name); l != "" {
					charged = l
					break frames
				}
				gc = gc || name == "runtime.gcBgMarkWorker"
			}
		}
		if charged == "" {
			charged = "runtime"
			if gc {
				charged = "gc"
			}
		}
		weights[charged] += w
		total += w
	}
	shares := map[string]float64{}
	for l, w := range weights {
		shares[l] = 100 * float64(w) / float64(total)
	}
	return shares, len(p.samples), nil
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

type profile struct {
	strings   []string
	funcNames map[uint64]uint64   // function id -> string index
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	samples   []profSample
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

var errTruncated = errors.New("truncated protobuf")

// Field numbers of profile.proto used here.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcNames: map[uint64]uint64{}, locFuncs: map[uint64][]uint64{}}
	err := eachField(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileString:
			p.strings = append(p.strings, string(data))
		case fProfileSample:
			var s profSample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case fSampleLocation:
					s.locs, err = appendUints(s.locs, wire, v, data)
				case fSampleValue:
					var vs []uint64
					vs, err = appendUints(nil, wire, v, data)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message, passing varints as v and
// length-delimited fields as data. Fixed-width fields are skipped.
func eachField(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated integer field in either encoding: one
// varint per field (wire type 0) or a packed run (wire type 2).
func appendUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
