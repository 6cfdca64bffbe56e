// Package mix is empty. The heterogeneous mix engine it held was
// removed; the one property only it checked, every tracker holding
// under two attackers at once, is exp's TestMixSecauditTwoAttackerConformance.
//
// The directory stays, with no code, only because the benchmark's
// host-time layer map (packageLayer in simbench/layers.go) still has a
// "mix" row, and that map's completeness test requires every row to
// name a package under internal/. simbench changes only together with
// a re-measured benchmark; that change drops the row and deletes this
// directory in one commit.
package mix
