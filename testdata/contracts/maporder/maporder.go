// Package maporder is the fixture for the map-iteration-order
// contract: order may never leak into formatted output, errors,
// writers/hashes, channels, or slices that outlive the loop, and the
// collect-then-sort idiom is recognized as the fix.
package maporder

import (
	"fmt"
	"sort"
)

func format(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want `fmt\.Println inside map iteration`
	}
}

func firstError(m map[string]int) error {
	for k, v := range m {
		if v < 0 {
			// Which key's error the caller sees depends on map order.
			return fmt.Errorf("bad %s", k) // want `fmt\.Errorf inside map iteration`
		}
	}
	return nil
}

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // sorted two lines down: the sanctioned idiom
	}
	sort.Strings(keys)
	return keys
}

func collectSortedSubslice(m map[uint64]uint32, dead []uint64, spill uint32) []uint64 {
	start := len(dead)
	for k, c := range m {
		if c <= spill {
			dead = append(dead, k) // sorted below through a subslice expression
		}
	}
	sort.Slice(dead[start:], func(i, j int) bool { return dead[start+i] < dead[start+j] })
	return dead
}

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys \(declared outside the loop\) inside map iteration`
	}
	return keys
}

type sink struct{}

func (sink) Write(p []byte) (int, error) { return len(p), nil }

func hash(m map[string]int, w sink) {
	for k := range m {
		w.Write([]byte(k)) // want `Write call inside map iteration feeds a writer/hash/encoder`
	}
}

func send(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `channel send inside map iteration`
	}
}

func loopLocalAppendIsFine(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		local := make([]int, 0, len(vs))
		for _, v := range vs {
			local = append(local, v) // local dies with the iteration: fine
		}
		n += len(local)
	}
	return n
}

func commutativeSumIsFine(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func sliceRangeIsFine(xs []string, ch chan string) {
	for _, x := range xs {
		ch <- x // ranging a slice, not a map
	}
}

// annotated shows that //dapper:anyorder is no escape hatch: a
// leaking map loop is always a finding.
func annotated(m map[string]int, ch chan string) {
	//dapper:anyorder fixture: the receiver re-sorts before any bytes escape
	for k := range m {
		ch <- k // want `channel send inside map iteration`
	}
}
