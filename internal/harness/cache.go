package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dapper/internal/sim"
)

// buildFingerprint is the hex SHA-256 of the running executable,
// hashed once per process, starting when the first cache opens. Every
// envelope records it, and Get serves only entries the same build
// wrote, so a rebuilt model is never served the old model's Results;
// if the hash fails, Get serves nothing and Put reports the error.
var buildFingerprint = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
})

// orphanTTL is how old a put-* temp file (a crashed or failed Put) or
// a *.corrupt quarantine file must be before NewCache sweeps it. The
// grace period keeps a sweep in one process from deleting a temp file
// another process is writing right now.
const orphanTTL = 15 * time.Minute

// envelope is the on-disk entry: the payload (a sim.Result as JSON)
// wrapped with the fingerprint of the build that wrote it, the
// descriptor key it serves, and a checksum over the payload bytes. Get
// refuses anything that does not verify — an empty {}, a truncated
// write, a wrong key or a bit-flipped payload all become misses, not
// fabricated Results.
type envelope struct {
	Build    string          `json:"build"`
	Key      string          `json:"key"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// CacheStats is a snapshot of a cache's counters.
type CacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Quarantined uint64 `json:"quarantined"`
}

// Cache persists simulation results by descriptor key in a directory:
// each result is <dir>/<key>.json inside a checksummed envelope that
// names the build that wrote it, so a rerun of the same experiment
// suite by the same build resimulates nothing. Within a process the
// pool dedups; the cache only persists. Two processes may share one
// directory: writes are atomic renames and reads verify the envelope.
type Cache struct {
	dir   string
	swept sync.Once // the first Put's sweep of other builds' entries

	mu          sync.Mutex
	hits        uint64
	miss        uint64
	quarantined uint64
}

// NewCache opens the cache directory dir, creating it if needed, and
// sweeps aged put-* temp files orphaned by crashed writers. A directory
// is required: an empty dir is an error.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("harness: cache dir: a directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cache dir: %w", err)
	}
	// Hash while the first runs simulate, off a fresh process's path to
	// its first result; Get and Put wait for the hash.
	go buildFingerprint()
	c := &Cache{dir: dir}
	c.sweepOrphans()
	return c, nil
}

// Get returns the result stored on disk for key. An entry another
// build wrote is a plain miss, which the cache's first Put removes. An
// entry that fails envelope verification — wrong key, checksum
// mismatch, or undecodable JSON — is quarantined (renamed to *.corrupt)
// and reported as a miss, so a corrupted store heals by re-simulating
// instead of serving garbage or re-parsing the same bad file on every
// lookup.
func (c *Cache) Get(key string) (sim.Result, bool) {
	path := c.path(key)
	if data, err := os.ReadFile(path); err == nil {
		build, res, ok := decodeEnvelope(key, data)
		own, err := buildFingerprint()
		switch {
		case !ok:
			c.quarantine(path)
		case err == nil && build == own:
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return res, true
		}
	}
	c.mu.Lock()
	c.miss++
	c.mu.Unlock()
	return sim.Result{}, false
}

// Put writes a result to disk under key. The write goes via a put-*
// temp file + rename so concurrent processes sharing a cache directory
// never observe torn files; the entry is wrapped in the checksummed
// envelope under this build's fingerprint. A cache's first Put first
// removes every entry another build wrote (see sweepForeign).
func (c *Cache) Put(key string, res sim.Result) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("harness: cache encode: %w", err)
	}
	build, err := buildFingerprint()
	if err != nil {
		return fmt.Errorf("harness: cache build fingerprint: %w", err)
	}
	c.swept.Do(func() { c.sweepForeign(build) })
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(envelope{
		Build:    build,
		Key:      key,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  payload,
	})
	if err != nil {
		return fmt.Errorf("harness: cache encode: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.miss, Quarantined: c.quarantined}
}

// Close returns nil: Put writes every entry through, so nothing is
// pending.
func (c *Cache) Close() error { return nil }

// quarantine renames a failed-verification entry to <path>.corrupt so
// the next lookup misses cleanly instead of re-reading the bad bytes.
// Rename keeps the evidence for postmortems; the orphan sweep removes
// aged quarantine files.
func (c *Cache) quarantine(path string) {
	_ = os.Rename(path, path+".corrupt")
	c.mu.Lock()
	c.quarantined++
	c.mu.Unlock()
}

// decodeEnvelope verifies one on-disk entry against the descriptor key
// and the payload checksum, and returns the build that wrote it and the
// decoded result.
func decodeEnvelope(key string, data []byte) (string, sim.Result, bool) {
	var env envelope
	if json.Unmarshal(data, &env) != nil || env.Key != key {
		return "", sim.Result{}, false
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.Checksum {
		return "", sim.Result{}, false
	}
	var res sim.Result
	if json.Unmarshal(env.Payload, &res) != nil {
		return "", sim.Result{}, false
	}
	return env.Build, res, true
}

// sweepOrphans removes put-* temp files and *.corrupt quarantine files
// older than orphanTTL: crashed or failed Puts must not litter a
// reused cache directory forever. Young temp files are left alone —
// another process may be mid-write.
//
//dapper:wallclock file ages gate the orphan sweep only; nothing reaches a Result
func (c *Cache) sweepOrphans() {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-orphanTTL)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || (!strings.HasPrefix(name, "put-") && !strings.HasSuffix(name, ".corrupt")) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		_ = os.Remove(filepath.Join(c.dir, name))
	}
}

// sweepForeign removes every entry another build wrote: Get never
// serves one, and only a Put of its own key would replace it, so a
// long-lived directory would otherwise keep it forever. The build is
// the envelope's first field, so the head of each entry decides and no
// payload is decoded. An entry whose head does not parse is left for
// Get to quarantine; put-* temp files and *.corrupt files are the
// orphan sweep's.
func (c *Cache) sweepForeign(own string) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(c.dir, e.Name())
		if build, ok := entryBuild(path); ok && build != own {
			_ = os.Remove(path)
		}
	}
}

// entryBuild reads the build an entry's envelope names from the head
// of its file.
func entryBuild(path string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	var head [128]byte // {"build":" plus a 64-digit fingerprint and its quote
	n, _ := io.ReadFull(f, head[:])
	rest, ok := strings.CutPrefix(string(head[:n]), `{"build":"`)
	if !ok {
		return "", false
	}
	build, _, ok := strings.Cut(rest, `"`)
	return build, ok
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}
