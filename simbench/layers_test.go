package main

import (
	"bytes"
	"crypto/sha256"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestEveryInternalPackageHasOneLayer walks the module's internal tree
// and requires each package to map to exactly one known layer, and
// each map entry to name a package that exists.
func TestEveryInternalPackageHasOneLayer(t *testing.T) {
	known := append(slices.Clone(layers), "tools")
	used := make(map[string]bool)
	root := filepath.Join("..", "internal")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !hasPackage(t, path) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := "dapper/internal/" + filepath.ToSlash(rel)
		layer := layerOf(pkg)
		if !slices.Contains(known, layer) {
			t.Errorf("%s maps to layer %q; add it to packageLayer", pkg, layer)
		}
		top, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
		used[top] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for top, layer := range packageLayer {
		if !used[top] {
			t.Errorf("packageLayer names %q, which is not a package under internal/", top)
		}
		if !slices.Contains(known, layer) {
			t.Errorf("packageLayer maps %q to unknown layer %q", top, layer)
		}
	}
}

// hasPackage reports whether dir holds a non-test Go file.
func hasPackage(t *testing.T, dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"dapper/internal/mem.(*Controller).pick":                                         "dapper/internal/mem",
		"dapper/internal/exp.BatchedSweep.func1":                                         "dapper/internal/exp",
		"dapper/internal/flatmap.(*Map[go.shape.struct { dapper/internal/dram.X }]).Get": "dapper/internal/flatmap",
		"dapper/internal/trackers/hydra.New":                                             "dapper/internal/trackers/hydra",
		"dapper/simbench.pointHash":                                                      "dapper/simbench",
		"runtime.duffcopy":                                                               "runtime",
		"encoding/json.Marshal":                                                          "encoding/json",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestFoldAttributesToCaller profiles a hashing loop in this package:
// the samples land in crypto/sha256 frames, and the fold must charge
// them to the first dapper frame above them, the bench layer.
func TestFoldAttributesToCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for half a second")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	byLayer, unmapped, err := fold(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(unmapped) > 0 {
		t.Errorf("unmapped packages: %v", unmapped)
	}
	total := 0.0
	for _, v := range byLayer {
		total += v
	}
	if total == 0 || byLayer["bench"]/total < 0.5 {
		t.Errorf("bench layer got %.2fs of %.2fs sampled: %v", byLayer["bench"], total, byLayer)
	}
}

func spin(d time.Duration) {
	data := make([]byte, 1<<16)
	for end := time.Now().Add(d); time.Now().Before(end); {
		sum := sha256.Sum256(data)
		data[0] = sum[0]
	}
}
