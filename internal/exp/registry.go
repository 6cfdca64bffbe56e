package exp

import (
	"fmt"
	"sort"
)

// Generator produces one table/figure under a profile.
type Generator func(Profile) (*Table, error)

// registry maps experiment ids (one per paper table and figure, plus
// sec-h) to generators.
var registry = map[string]Generator{
	"tab1":  Tab1,
	"fig1":  Fig1,
	"fig3":  Fig3,
	"fig4":  Fig4,
	"fig5":  Fig5,
	"tab2":  Tab2,
	"fig9":  Fig9,
	"fig10": Fig10,
	"fig11": Fig11,
	"fig12": Fig12,
	"fig13": Fig13,
	"tab3":  Tab3,
	"tab4":  Tab4,
	"fig14": Fig14,
	"fig15": Fig15,
	"fig16": Fig16,
	"fig17": Fig17,
	"sec-h": SecH,
}

// IDs returns the experiment ids in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the generator for an experiment id.
func Lookup(id string) (Generator, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	return g, nil
}

// Order returns the ids in paper order (for "run everything").
func Order() []string {
	return []string{
		"tab1", "fig1", "fig3", "fig4", "fig5",
		"tab2", "fig9", "fig10", "fig11", "fig12", "fig13",
		"tab3", "tab4", "fig14", "fig15", "fig16", "fig17", "sec-h",
	}
}
