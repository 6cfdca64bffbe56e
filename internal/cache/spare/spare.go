// Package spare is the process-wide free list of large per-run arrays:
// the LLC's lines (internal/cache) and DAPPER-H's group-counter tables
// (internal/core). A run that ends hands its arrays back with Put, and
// the next run that needs a slice of the same element type and length
// takes it with Take instead of allocating, so a sweep of short
// simulations does not allocate its big state once per point.
//
// It is a plain mutex-guarded list rather than a sync.Pool, which
// would drop entries at every GC and make allocation totals jitter by
// whole arrays.
package spare

import (
	"slices"
	"sync"
)

// maxEntries bounds the list at one quick-profile lockstep group per
// worker of a two-worker pool. A DAPPER-H NRH sweep group hands back
// 8 points x 2 channels x 2 ranks = 32 tables of 64 KiB, and its lead's
// LLC array. Past the bound the oldest entry goes to the GC.
const maxEntries = 2 * (8*2*2 + 1)

var list struct {
	sync.Mutex
	entries []any // each a []T, newest last
}

// Take returns a zeroed slice of n elements of type T, as make would:
// the most recently released one of that type and length if the list
// holds one, else a new one.
func Take[T any](n int) []T {
	list.Lock()
	for i := len(list.entries) - 1; i >= 0; i-- {
		if s, ok := list.entries[i].([]T); ok && len(s) == n {
			list.entries = slices.Delete(list.entries, i, i+1)
			list.Unlock()
			clear(s)
			return s
		}
	}
	list.Unlock()
	return make([]T, n)
}

// Put hands s to a later Take of the same element type and length. The
// caller must not touch s afterwards.
func Put[T any](s []T) {
	if len(s) == 0 {
		return
	}
	list.Lock()
	defer list.Unlock()
	if len(list.entries) == maxEntries {
		list.entries = slices.Delete(list.entries, 0, 1)
	}
	list.entries = append(list.entries, s)
}
