package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dapper/internal/sim"
)

// writeRaw plants raw bytes as the disk entry for key, bypassing Put.
func writeRaw(t *testing.T, dir, key string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sealed encodes res as a verifying envelope that build wrote for key.
func sealed(build, key string, res sim.Result) []byte {
	payload, _ := json.Marshal(res)
	sum := sha256.Sum256(payload)
	data, _ := json.Marshal(envelope{Build: build, Key: key, Checksum: hex.EncodeToString(sum[:]), Payload: payload})
	return data
}

// TestCacheRejectsUnversionedAndCorruptEntries: any JSON-decodable
// file once counted as a hit, so an empty {}, a truncated write, or a
// pre-envelope file was served as a zero/partial Result. All of them
// must miss, be quarantined to *.corrupt, and not be re-parsed on the
// next lookup — even when the envelope names this very build.
func TestCacheRejectsUnversionedAndCorruptEntries(t *testing.T) {
	build, err := buildFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	legacy, _ := json.Marshal(testResult(3.0)) // pre-envelope format: raw sim.Result
	good := sealed(build, "k-tamper", testResult(3.0))
	tampered := []byte(strings.Replace(string(good), `"Cycles":1000`, `"Cycles":9999`, 1))
	cases := map[string]struct {
		key  string
		data []byte
	}{
		"empty-object":   {"k-empty", []byte(`{}`)},
		"truncated":      {"k-trunc", []byte(`{"build":"` + build + `","key":"k-trunc","pay`)},
		"legacy-schema":  {"k-legacy", legacy},
		"foreign-schema": {"k-foreign", []byte(`{"schema":"other-v9","key":"k-foreign","checksum":"","payload":{}}`)}, // checksum does not verify
		"wrong-key":      {"k-wrongkey", good},
		"bad-checksum":   {"k-tamper", tampered},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeRaw(t, dir, tc.key, tc.data)
			c, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if res, ok := c.Get(tc.key); ok {
				t.Fatalf("corrupt entry served as a hit: %+v", res)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still at %s, want quarantined", path)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			if got := c.Stats().Quarantined; got != 1 {
				t.Fatalf("quarantined = %d, want 1", got)
			}
			// Second lookup: a clean miss, no re-parse, no double quarantine.
			if _, ok := c.Get(tc.key); ok {
				t.Fatal("quarantined entry hit on second lookup")
			}
			if got := c.Stats().Quarantined; got != 1 {
				t.Fatalf("second lookup re-quarantined: %d", got)
			}
			// A fresh Put heals the slot and round-trips.
			if err := c.Put(tc.key, testResult(4.0)); err != nil {
				t.Fatal(err)
			}
			if res, ok := c.Get(tc.key); !ok || res.IPC[0] != 4.0 {
				t.Fatalf("healed entry: ok=%v res=%+v", ok, res)
			}
		})
	}
}

// TestCacheForeignBuildIsAMiss: an entry another build wrote verifies,
// so it is a plain miss rather than a quarantine, and this build's Put
// replaces it with an entry under its own fingerprint.
func TestCacheForeignBuildIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := testDesc("foreign", 500).Key()
	path := writeRaw(t, dir, key, sealed("another-build", key, testResult(1.0)))
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get(key); ok {
		t.Fatalf("served another build's entry: %+v", res)
	}
	if s := c.Stats(); s.Misses != 1 || s.Quarantined != 0 {
		t.Fatalf("stats %+v, want one miss and no quarantine", s)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("a foreign build's entry was moved: %v", err)
	}
	if err := c.Put(key, testResult(2.0)); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get(key); !ok || res.IPC[0] != 2.0 {
		t.Fatalf("after this build's Put: ok=%v res=%+v", ok, res)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Build == "another-build" {
		t.Fatalf("Put left the foreign fingerprint: err=%v build=%q", err, env.Build)
	}
}

// TestCacheSweepsForeignBuildsOnFirstPut: Get never serves another
// build's entry and only a Put of its own key replaces it, so a cache's
// first Put removes every entry another build wrote, whatever its key.
// Entries this build wrote, entries that do not parse (Get quarantines
// those), put-* temp files and *.corrupt files stay.
func TestCacheSweepsForeignBuildsOnFirstPut(t *testing.T) {
	build, err := buildFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	foreign := writeRaw(t, dir, "k-foreign", sealed("another-build", "k-foreign", testResult(1.0)))
	own := writeRaw(t, dir, "k-own", sealed(build, "k-own", testResult(2.0)))
	keep := []string{own, writeRaw(t, dir, "k-empty", []byte(`{}`))}
	for _, name := range []string{"put-123", "k-old.json.corrupt"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, sealed("another-build", "k-old", testResult(1.0)), 0o644); err != nil {
			t.Fatal(err)
		}
		keep = append(keep, path)
	}
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k-foreign"); ok {
		t.Fatal("served another build's entry")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("the foreign entry went before any Put: %v", err)
	}
	if err := c.Put("k-new", testResult(3.0)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(foreign); !os.IsNotExist(err) {
		t.Fatalf("the foreign entry survived the first Put (stat err %v)", err)
	}
	for _, path := range keep {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("the sweep removed %s: %v", filepath.Base(path), err)
		}
	}
	if res, ok := c.Get("k-own"); !ok || res.IPC[0] != 2.0 {
		t.Fatalf("own-build entry after the sweep: ok=%v res=%+v", ok, res)
	}
}

// TestCacheSweepsOrphanTempFiles pins the leaked put-* satellite: a
// directory littered with aged temp files (crashed Puts) comes up
// clean, while young temp files — potentially another process's
// in-flight write — survive.
func TestCacheSweepsOrphanTempFiles(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-2 * orphanTTL)
	for i := 0; i < 5; i++ {
		path := filepath.Join(dir, fmt.Sprintf("put-orphan%d", i))
		if err := os.WriteFile(path, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	agedCorrupt := filepath.Join(dir, "dead.json.corrupt")
	if err := os.WriteFile(agedCorrupt, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(agedCorrupt, old, old); err != nil {
		t.Fatal(err)
	}
	young := filepath.Join(dir, "put-inflight")
	if err := os.WriteFile(young, []byte("writing"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCache(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "put-orphan") {
			t.Fatalf("aged orphan %s survived the sweep", e.Name())
		}
		if strings.HasSuffix(e.Name(), ".corrupt") {
			t.Fatalf("aged quarantine file %s survived the sweep", e.Name())
		}
	}
	if _, err := os.Stat(young); err != nil {
		t.Fatal("young temp file (possibly another process's in-flight write) was swept")
	}
}

// TestCacheSharedDirMultiInstance is the shared-directory satellite
// (run under -race in CI): two Cache instances over one directory
// doing concurrent Put/Get must never tear a read, and a reader must
// never quarantine an entry another instance is rewriting.
func TestCacheSharedDirMultiInstance(t *testing.T) {
	dir := t.TempDir()
	open := func() *Cache {
		c, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := open(), open()
	const (
		writers = 4
		keys    = 16
		rounds  = 30
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		for _, c := range []*Cache{a, b} {
			wg.Add(1)
			go func(c *Cache, w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					key := fmt.Sprintf("shared-%d", (w+r)%keys)
					want := float64((w + r) % keys)
					if err := c.Put(key, testResult(want)); err != nil {
						t.Errorf("put %s: %v", key, err)
						return
					}
					// An immediate re-read through a fresh instance goes to
					// disk while other writers rename over the same entry: it
					// must be a hit with untorn content.
					fresh, err := NewCache(dir)
					if err != nil {
						t.Errorf("open %s: %v", dir, err)
						return
					}
					res, ok := fresh.Get(key)
					if !ok || fresh.Stats().Quarantined != 0 {
						t.Errorf("just-written %s missing or quarantined (torn)", key)
						return
					}
					if res.IPC[0] != want || res.Cycles != 1000 {
						t.Errorf("torn read on %s: %+v", key, res)
						return
					}
				}
			}(c, w)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if a.Stats().Quarantined != 0 || b.Stats().Quarantined != 0 {
		t.Fatalf("concurrent instances quarantined valid entries: a=%+v b=%+v",
			a.Stats(), b.Stats())
	}
}

// TestCacheDiskRoundTripAcrossInstances upgrades the old round-trip
// test: what one instance Put, a later instance must Get through the
// envelope — including the full embedded Result payload.
func TestCacheDiskRoundTripAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	key := testDesc("roundtrip", 500).Key()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testResult(2.5)
	want.Counters.ACT = 12345
	if err := c1.Put(key, want); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("fresh instance missed a persisted entry")
	}
	if got.IPC[0] != 2.5 || got.Counters.ACT != 12345 || got.TrackerNames[0] != "DAPPER-H" {
		t.Fatalf("round trip mangled the result: %+v", got)
	}
	// The on-disk bytes really are the envelope, not a raw Result.
	raw, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bin)
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Build != hex.EncodeToString(sum[:]) || env.Key != key {
		t.Fatalf("on-disk entry is not an envelope naming this executable's SHA-256: err=%v build=%q", err, env.Build)
	}
	var res sim.Result
	if err := json.Unmarshal(env.Payload, &res); err != nil || res.Counters.ACT != 12345 {
		t.Fatalf("envelope payload does not decode to the Result: %v", err)
	}
}
