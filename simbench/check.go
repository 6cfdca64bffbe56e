package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"dapper/internal/exp"
	"dapper/internal/sim"
)

// pointHash is the SHA-256 of one Result's canonical JSON
// (encoding/json: struct fields in declaration order, map keys sorted).
func pointHash(res sim.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func hashPoints(points []point) ([]string, error) {
	out := make([]string, len(points))
	for i, p := range points {
		h, err := pointHash(p.res)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.desc, err)
		}
		out[i] = h
	}
	return out, nil
}

// digest folds a pass's point hashes, in spec order, into the
// workload's digest.
func digest(hashes []string) string {
	h := sha256.New()
	for _, s := range hashes {
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pin is the checked-in expectation for one workload at the pinned
// seed: its digest and the hash of every point, in spec order.
type pin struct {
	Digest string   `json:"digest"`
	Points []string `json:"points"`
	// Disagree lists, per cross-check, the points whose Result differed
	// from the pinned event-engine pass when the pin was made.
	Disagree map[string][]string `json:"disagree,omitempty"`
}

// pinFile is pins.json: the seed the pins hold for and one pin per
// workload. The pin mode (-pin) writes it after checking that the cycle
// engine, and for nrh-sweep the independent pool path, agree.
type pinFile struct {
	Seed      uint64         `json:"seed"`
	Workloads map[string]pin `json:"workloads"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pinFile, error) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return pf, fmt.Errorf("pins.json: %w", err)
	}
	return pf, nil
}

// checker compares every pass of one run against a reference: the pin
// when the run uses the pinned seed, else the run's own first pass.
type checker struct {
	ref       []string
	pinned    bool
	attempted int
	failed    int
	// slowdown is the first pass's model_slowdown_pct; every later pass
	// must repeat it exactly.
	slowdown     float64
	haveSlowdown bool
	problems     []string
}

func newChecker(w workload, seed uint64) (*checker, error) {
	pf, err := loadPins()
	if err != nil {
		return nil, err
	}
	c := &checker{}
	if seed == pf.Seed {
		p, ok := pf.Workloads[w.name]
		if !ok {
			return nil, fmt.Errorf("pins.json has no %s pin", w.name)
		}
		if digest(p.Points) != p.Digest {
			return nil, fmt.Errorf("pins.json: %s digest does not match its point hashes", w.name)
		}
		c.ref, c.pinned = p.Points, true
	}
	return c, nil
}

// check scores one pass: every point that differs from the reference
// fails, and for nrh-sweep so does every warm point that was not a
// cache hit or differs from its cold point.
func (c *checker) check(w workload, p *pass) {
	hashes, err := hashPoints(p.points)
	c.attempted += len(p.points)
	if err != nil {
		c.failed += len(p.points)
		c.problemf("hashing results: %v", err)
		return
	}
	if c.ref == nil {
		c.ref = hashes
	}
	if len(hashes) != len(c.ref) {
		c.failed += len(p.points)
		c.problemf("%d points, want %d", len(hashes), len(c.ref))
		return
	}
	for i, h := range hashes {
		if h != c.ref[i] {
			c.failed++
			c.problemf("%s: result hash %s, want %s", p.points[i].desc, h[:12], c.ref[i][:12])
		}
	}
	if w.name == "nrh-sweep" {
		c.attempted += len(p.warm)
		warm, err := hashPoints(p.warm)
		if err != nil || len(warm) != len(hashes) {
			c.failed += len(p.warm)
			c.problemf("warm pass: %d points, err %v", len(p.warm), err)
		} else {
			for i := range warm {
				if !p.warm[i].cached || warm[i] != hashes[i] {
					c.failed++
					c.problemf("%s: warm pass cached=%t, matches cold %t", p.warm[i].desc, p.warm[i].cached, warm[i] == hashes[i])
				}
			}
		}
	}
	if w.slowdownCores != nil {
		s, err := slowdownPct(p.points, w.slowdownCores)
		switch {
		case err != nil:
			c.problemf("model_slowdown_pct: %v", err)
			c.failed++
		case !c.haveSlowdown:
			c.slowdown, c.haveSlowdown = s, true
		case s != c.slowdown:
			c.problemf("model_slowdown_pct %v, first pass %v", s, c.slowdown)
			c.failed++
		}
	}
}

func (c *checker) problemf(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// slowdownPct is the mean slowdown, in percent, of the given benign
// cores under DAPPER-H versus the insecure baseline of the same
// workload and attack, averaged over every such pair in the pass.
func slowdownPct(points []point, cores []int) (float64, error) {
	type pair struct{ base, treat *sim.Result }
	pairs := make(map[string]*pair)
	var keys []string
	for i := range points {
		d := points[i].desc
		k := d.Workload + "/" + d.Attack
		pr, ok := pairs[k]
		if !ok {
			pr = &pair{}
			pairs[k] = pr
			keys = append(keys, k)
		}
		switch d.Tracker {
		case "none":
			pr.base = &points[i].res
		case "DAPPER-H":
			pr.treat = &points[i].res
		default:
			return 0, fmt.Errorf("unexpected tracker %q", d.Tracker)
		}
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		pr := pairs[k]
		if pr.base == nil || pr.treat == nil {
			return 0, fmt.Errorf("%s lacks a none/DAPPER-H pair", k)
		}
		sum += 1 - sim.NormalizedPerf(*pr.treat, *pr.base, cores)
	}
	return 100 * sum / float64(len(keys)), nil
}

// pinAll regenerates pins.json at the default seed from one
// event-engine pass per workload, and cross-checks each pin once: the
// cycle engine (the repository's reference loop) must give the same
// Results, and for nrh-sweep so must BatchRequest.Jobs run
// independently on a pool. Points that disagree are recorded in the pin
// and printed, not hidden: the run-time check compares against the
// event-engine pass either way.
func pinAll(path, tmp string, stderr io.Writer) error {
	pf := pinFile{Seed: exp.Quick().Seed, Workloads: make(map[string]pin)}
	type variant struct {
		name        string
		engine      sim.Engine
		independent bool
	}
	for _, w := range allWorkloads {
		variants := []variant{{"event", sim.EngineEvent, false}, {"cycle", sim.EngineCycle, false}}
		if w.name == "nrh-sweep" {
			variants = append(variants, variant{"independent", sim.EngineEvent, true})
		}
		var pn pin
		for _, v := range variants {
			profile := exp.Quick()
			profile.Engine = v.engine
			r := &runner{workload: w.name, profile: profile, tmpDir: tmp, independent: v.independent}
			p, err := w.run(r)
			if err != nil {
				return fmt.Errorf("%s (%s): %w", w.name, v.name, err)
			}
			hashes, err := hashPoints(p.points)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "simbench: %s %s digest %s\n", w.name, v.name, digest(hashes))
			if pn.Points == nil {
				pn = pin{Digest: digest(hashes), Points: hashes}
				continue
			}
			if len(hashes) != len(pn.Points) {
				return fmt.Errorf("%s: %s pass has %d points, event pass %d", w.name, v.name, len(hashes), len(pn.Points))
			}
			for i, h := range hashes {
				if h != pn.Points[i] {
					if pn.Disagree == nil {
						pn.Disagree = make(map[string][]string)
					}
					d := p.points[i].desc
					pn.Disagree[v.name] = append(pn.Disagree[v.name], d.String())
					fmt.Fprintf(stderr, "simbench: %s: %s Result differs from event engine: %s\n", w.name, v.name, d)
				}
			}
		}
		pf.Workloads[w.name] = pn
	}
	b, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
