// Package stats provides the small statistical helpers the experiment
// tables use: the arithmetic mean, the maximum and slowdown
// normalization.
package stats

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Slowdown converts a normalized performance value (e.g. 0.87) into a
// slowdown fraction (0.13). Values above 1 clamp to 0.
func Slowdown(normPerf float64) float64 {
	if normPerf >= 1 {
		return 0
	}
	return 1 - normPerf
}
