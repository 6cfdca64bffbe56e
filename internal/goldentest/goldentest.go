// Package goldentest is the shared byte-exact golden-fixture helper
// behind every serialized-artifact test (harness sinks, adversary
// reports, the audit matrix, pinned simulation Results). Fixtures live
// under the calling package's testdata/ directory; run the package's
// tests with -update to rewrite them after a deliberate, reviewed
// change.
//
// Only _test files import this package, so the testing dependency never
// reaches a shipped binary.
package goldentest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Check compares got against testdata/<name> (relative to the calling
// test's working directory, i.e. its package directory), rewriting the
// fixture under -update. Byte-exact: golden output is a stable external
// format consumed by analysis pipelines, so any drift must be a
// deliberate, reviewed change.
func Check(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden fixture (rerun with -update if intended)\n got:\n%s\nwant:\n%s",
			name, got, want)
	}
}
