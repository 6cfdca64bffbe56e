// Package analysis is empty: its static contracts are plain tests now
// (contracts_test.go at the module root, and AllocsPerRun tests beside
// the hot paths). The directory stays only because simbench/layers.go's
// packageLayer still has an "analysis" row, which the layer map's
// completeness test requires to name a package under internal/. The
// next re-measured benchmark drops the row and this directory together.
package analysis
