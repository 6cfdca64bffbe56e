// Adversary example: search the parametric attack space for the
// worst-case performance attack against Hydra, in-process. The same
// machinery backs `dapper adversary`; this is the ~30-second
// tiny-profile taste.
//
//	go run ./examples/adversary
package main

import (
	"fmt"
	"os"

	"dapper/internal/adversary"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/workloads"
)

func main() {
	w, err := workloads.ByName("429.mcf")
	if err != nil {
		panic(err)
	}
	cache, _ := harness.NewCache("") // in-memory; pass a dir to persist
	pool := harness.NewPool(harness.Options{Cache: cache})

	rep, err := adversary.Search(adversary.Options{
		TrackerID: "hydra",
		Workload:  w,
		Profile:   exp.Tiny(), // tiny windows: seconds, not minutes
		Budget:    10,
		Seed:      1,
	}, pool)
	if err != nil {
		panic(err)
	}
	pool.Wait()

	fmt.Println(rep.Summary())
	fmt.Printf("worst-found point: %s\n", rep.Best.Canonical)
	fmt.Printf("hand-crafted %s: %.3fx; search gain %+.1f%% over %d evaluations\n",
		rep.Reference.Label, rep.Reference.Slowdown, (rep.Gain-1)*100, rep.Evals)

	// The full trace (and a summary line) stream as JSONL — the same
	// format `dapper adversary` writes to adversary-<tracker>.jsonl.
	fmt.Println("\nsearch trace:")
	rep.Trace = rep.Trace[:3] // first rungs only, for the example
	if err := rep.WriteJSONL(os.Stdout); err != nil {
		panic(err)
	}
}
