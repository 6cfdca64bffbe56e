// Package serve is empty. The sweep service it held was removed; run
// sweeps with `dapper batch` or `dapper experiments` and -cache instead.
//
// The directory stays, with no code, only because the benchmark's
// host-time layer map (packageLayer in simbench/layers.go) still has a
// "serve" row, and that map's completeness test requires every row to
// name a package under internal/. simbench changes only together with
// a re-measured benchmark; that change drops the row and deletes this
// directory in one commit.
package serve
