package spare

import "testing"

// TestTakeMatchesTypeAndLength pins the free list's key: a released
// slice goes only to a Take of its element type and length, and comes
// back zeroed.
func TestTakeMatchesTypeAndLength(t *testing.T) {
	a := Take[uint64](5)
	a[0], a[4] = 7, 9
	Put(a)
	if s := Take[uint32](5); len(s) != 5 {
		t.Fatalf("Take[uint32](5) has %d elements", len(s))
	}
	if s := Take[uint64](6); &s[0] == &a[0] {
		t.Fatal("Take of another length took the released slice")
	}
	b := Take[uint64](5)
	if &b[0] != &a[0] {
		t.Fatal("Take of the released slice's type and length did not take it")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("reused slice holds %d at %d", v, i)
		}
	}
}

// TestPutDropsTheOldestPastTheBound pins the bound: of maxEntries+1
// released slices of one shape, the first goes to the GC and the rest
// come back newest first.
func TestPutDropsTheOldestPastTheBound(t *testing.T) {
	put := make([]*int8, maxEntries+1)
	for i := range put {
		s := make([]int8, 3)
		put[i] = &s[0]
		Put(s)
	}
	for i := len(put) - 1; i >= 1; i-- {
		if s := Take[int8](3); &s[0] != put[i] {
			t.Fatalf("take %d did not return release %d", len(put)-i, i)
		}
	}
	if s := Take[int8](3); &s[0] == put[0] {
		t.Fatal("the oldest release survived past the bound")
	}
}
