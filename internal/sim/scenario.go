package sim

import (
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/workloads"
)

// BenignTraces builds n copies of workload w, each in its own slice of
// the physical address space (homogeneous multi-programming, §IV).
func BenignTraces(w workloads.Workload, n int, geo dram.Geometry, seed uint64) []cpu.Trace {
	traces := make([]cpu.Trace, n)
	slice := geo.TotalBytes() / uint64(n)
	for i := range traces {
		traces[i] = workloads.NewTrace(w, uint64(i)*slice, slice, seed+uint64(i)*0x9E37+1)
	}
	return traces
}

// BenignCores returns the core indices holding benign workloads in an
// n-core attack run: all but the last, where exp's Run puts the
// attacker.
func BenignCores(n int) []int {
	cores := make([]int, n-1)
	for i := range cores {
		cores[i] = i
	}
	return cores
}

// NormalizedPerf returns the mean IPC ratio of the given cores between a
// treatment run and its baseline — the paper's "normalized performance"
// metric. Cores whose baseline IPC is zero carry no information and are
// skipped from both the sum and the denominator (counting them only in
// the denominator would silently deflate the mean).
func NormalizedPerf(treat, base Result, cores []int) float64 {
	sum, n := 0.0, 0
	for _, c := range cores {
		if base.IPC[c] > 0 {
			sum += treat.IPC[c] / base.IPC[c]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
