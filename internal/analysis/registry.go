package analysis

// All returns the production analyzer suite in reporting order —
// what cmd/dapper-lint runs and `make lint` gates CI on.
func All() []*Analyzer {
	return []*Analyzer{
		NewNodeterm(NodetermConfig{TierOf: DapperTiers}),
		Maporder,
		Hotpath,
	}
}
