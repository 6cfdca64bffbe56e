package exp

import (
	"fmt"
	"strings"

	"dapper/internal/attack"
	"dapper/internal/energy"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/stats"
	"dapper/internal/workloads"
)

// Experiment is one table or figure of the paper's evaluation.
type Experiment struct {
	ID string
	// declare lays the experiment out under a profile.
	declare func(Profile) (figure, error)
}

// Experiments lists every table and figure of the paper's evaluation,
// plus the §VI-C security analysis, in paper order.
var Experiments = []Experiment{
	{"tab1", tab1}, {"fig1", fig1}, {"fig3", fig3}, {"fig4", fig4}, {"fig5", fig5},
	{"tab2", tab2}, {"fig9", fig9}, {"fig10", fig10}, {"fig11", fig11}, {"fig12", fig12},
	{"fig13", fig13}, {"tab3", tab3}, {"tab4", tab4}, {"fig14", fig14}, {"fig15", fig15},
	{"fig16", fig16}, {"fig17", fig17}, {"sec-h", secH},
}

// Select resolves an -exp selector: one experiment id, or "all" for
// every experiment in paper order.
func Select(sel string) ([]Experiment, error) {
	if sel == "all" {
		return Experiments, nil
	}
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		if e.ID == sel {
			return []Experiment{e}, nil
		}
		ids[i] = e.ID
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (known: all, %s)", sel, strings.Join(ids, ", "))
}

// Generate renders the experiments' tables in order. It declares each
// experiment under p, submits both runs of every point to the pool
// before the first Wait, and turns each figure's Results into its
// table. The pool dedups, so a run several points or figures name runs
// once, and its cache, lockstep grouping and dedup span all the
// experiments. The tables are byte-identical at any worker count.
func Generate(exps []Experiment, p Profile, pool *harness.Pool) ([]*Table, error) {
	figs := make([]figure, len(exps))
	var futures []*harness.Future
	for i, e := range exps {
		f, err := e.declare(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		figs[i] = f
		for _, row := range f.rows {
			for _, c := range row {
				for _, pt := range c.points {
					for _, r := range [2]Run{pt.base, pt.run} {
						job, err := r.Job()
						if err != nil {
							return nil, err
						}
						futures = append(futures, pool.Submit(job))
					}
				}
			}
		}
	}
	results := make(map[string]sim.Result, len(futures))
	for _, f := range futures {
		res, err := f.Wait()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Desc(), err)
		}
		results[f.Desc().Key()] = res
	}
	tables := make([]*Table, len(figs))
	for i, f := range figs {
		tables[i] = f.table(exps[i].ID, results)
	}
	return tables, nil
}

// figure is an experiment laid out under one profile: its table's text
// plus rows whose computed cells name the points they read.
type figure struct {
	title  string
	header []string
	rows   [][]cell
	notes  []string
}

// addText appends a row of fixed text.
func (f *figure) addText(texts ...string) {
	row := make([]cell, len(texts))
	for i, s := range texts {
		row[i] = cell{text: s}
	}
	f.rows = append(f.rows, row)
}

// cell is one table entry: fixed text, or a statistic over the points
// it reads (reduce over each point's metric, then format).
type cell struct {
	text   string
	points []point
	metric func(outcome) float64
	reduce func([]float64) float64
	format func(float64) string
}

// table turns the points' Results into the figure's Table.
func (f figure) table(id string, results map[string]sim.Result) *Table {
	t := &Table{ID: id, Title: f.title, Header: f.header, Notes: f.notes}
	for _, row := range f.rows {
		texts := make([]string, len(row))
		for i, c := range row {
			texts[i] = c.text
			if c.metric == nil {
				continue
			}
			vals := make([]float64, len(c.points))
			for j, pt := range c.points {
				vals[j] = c.metric(outcome{pt.run, results[pt.run.Desc().Key()], results[pt.base.Desc().Key()]})
			}
			texts[i] = c.format(c.reduce(vals))
		}
		t.AddRow(texts...)
	}
	return t
}

// point is one simulated run plus the baseline run it is normalized
// against.
type point struct{ run, base Run }

// outcome is a point's run and the two Results.
type outcome struct {
	run         Run
	treat, base sim.Result
}

// pair is the baseline rule: a point's baseline is the insecure system
// at nrh0, the figure's first threshold (p.NRHSweep[0] in the sweep
// figures, p.NRH otherwise), with either an idle companion or, with
// keepAttack, the point's own attacker. These are the paper's two
// normalizations: the idle companion (Figures 1/3/4/5) shows the
// TOTAL damage (attacker bandwidth plus mitigation side effects); the
// same attacker (Figures 9-17, Table IV; Figure 11 has none, so the two
// agree) isolates what the tracker ADDS, which is how DAPPER-H can sit
// at <1% with a hammering core active.
func pair(run Run, nrh0 uint32, keepAttack bool) point {
	b := run
	b.Tracker, b.NRH = "none", nrh0
	if !keepAttack {
		b.Attack = AttackPoint{}
	}
	return point{run, b}
}

// scenario is one configuration a figure compares: a tracker issuing
// one mitigation mode, next to three benign copies and an attacker, or
// as four benign copies.
type scenario struct {
	name    string
	tracker string
	mode    rh.MitigationMode
	kind    attack.Kind
	benign4 bool
}

// points returns the scenario's point for each workload at nrh, paired
// with baselines at nrh0. A DAPPER point (Figures 9-17, Table IV) is a
// dapperRun normalized against the same attacker; any other is a
// full-geometry perfAttackRun against an idle companion.
func (p Profile) points(ws []workloads.Workload, sc scenario, nrh, nrh0 uint32, dapper bool) []point {
	pts := make([]point, len(ws))
	for i, w := range ws {
		run := p.perfAttackRun(w, sc.tracker, sc.kind, nrh)
		if dapper {
			run = p.dapperRun(w, sc.tracker, sc.mode, sc.kind, nrh, sc.benign4)
		}
		pts[i] = pair(run, nrh0, dapper)
	}
	return pts
}

// stat is a computed cell: reduce over each point's metric, formatted.
func stat(pts []point, metric func(outcome) float64, reduce func([]float64) float64, format func(float64) string) cell {
	return cell{points: pts, metric: metric, reduce: reduce, format: format}
}

// meanPerf is the points' mean normalized performance.
func meanPerf(pts []point) cell { return stat(pts, perf, stats.Mean, norm) }

// perf is the benign cores' performance normalized to the baseline.
func perf(o outcome) float64 {
	cores := []int{0, 1, 2, 3}
	if !o.run.Benign4 {
		cores = sim.BenignCores(4)
	}
	return sim.NormalizedPerf(o.treat, o.base, cores)
}

func slowdown(o outcome) float64 { return stats.Slowdown(perf(o)) }

// energyOverhead is the run's mitigation-operation energy over the
// baseline's total energy (Table IV).
func energyOverhead(o outcome) float64 {
	return energy.DDR5().Overhead(o.treat.Counters, o.base.Counters, o.treat.Cycles,
		o.run.Geometry.Channels, rh.VRR1)
}
