//go:build ignore

// outdiff compares two fairbench -out JSON files with their timing
// fields removed:
//
//	go run scripts/outdiff.go A.json B.json
//
// It drops every "Seconds" and "Overhead" field, at any depth, and
// compares what remains: objects key by key, arrays element by element,
// and numbers by their JSON text, which for the encoder's shortest
// round-trip form means bit for bit. It prints the first differing path
// (for example $.sensitivity[3].Row.Fair.ID) with both values and exits
// 1 on any difference, 2 when a file cannot be read or parsed, and 0,
// printing nothing, when the files match.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// timing names the fields that hold wall-clock measurements.
var timing = map[string]bool{"Seconds": true, "Overhead": true}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/outdiff.go A.json B.json")
		os.Exit(2)
	}
	a, b := load(os.Args[1]), load(os.Args[2])
	if path, av, bv, ok := diff("$", a, b); !ok {
		fmt.Printf("%s: %s differs from %s\n", path, show(av), show(bv))
		os.Exit(1)
	}
}

func load(path string) any {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "outdiff:", err)
		os.Exit(2)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		fmt.Fprintf(os.Stderr, "outdiff: %s: %v\n", path, err)
		os.Exit(2)
	}
	return v
}

// diff walks a and b in a fixed order and returns the first path where
// they differ, with the two values there; ok reports a match.
func diff(path string, a, b any) (string, any, any, bool) {
	switch av := a.(type) {
	case map[string]any:
		bv, isMap := b.(map[string]any)
		if !isMap {
			return path, a, b, false
		}
		keys := make([]string, 0, len(av)+len(bv))
		for k := range av {
			keys = append(keys, k)
		}
		for k := range bv {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range slices.Compact(keys) {
			if timing[k] {
				continue
			}
			x, inA := av[k]
			y, inB := bv[k]
			if !inA || !inB {
				return path + "." + k, orMissing(x, inA), orMissing(y, inB), false
			}
			if p, x, y, ok := diff(path+"."+k, x, y); !ok {
				return p, x, y, false
			}
		}
		return "", nil, nil, true
	case []any:
		bv, isSlice := b.([]any)
		if !isSlice {
			return path, a, b, false
		}
		for i := range max(len(av), len(bv)) {
			p := fmt.Sprintf("%s[%d]", path, i)
			if i >= len(av) || i >= len(bv) {
				return p, orMissing(at(av, i)), orMissing(at(bv, i)), false
			}
			if p, x, y, ok := diff(p, av[i], bv[i]); !ok {
				return p, x, y, false
			}
		}
		return "", nil, nil, true
	default:
		// Strings, json.Numbers, booleans and null compare as values.
		if a != b {
			return path, a, b, false
		}
		return "", nil, nil, true
	}
}

// missing stands for a key or element one side lacks.
type missing struct{}

func at(s []any, i int) (any, bool) {
	if i < len(s) {
		return s[i], true
	}
	return nil, false
}

func orMissing(v any, present bool) any {
	if !present {
		return missing{}
	}
	return v
}

// show renders a value as compact JSON, or "(missing)" for an absent one.
func show(v any) string {
	if v == (missing{}) {
		return "(missing)"
	}
	out, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	if len(out) > 120 {
		return string(out[:117]) + "..."
	}
	return string(out)
}
