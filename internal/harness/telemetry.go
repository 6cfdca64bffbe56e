package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"dapper/internal/telemetry"
)

// WriteTelemetry exports a sweep's harness-level telemetry into dir:
// trace.json (Chrome trace-event format, Perfetto-viewable — one lane
// per worker plus a cache lane) and counters.json (the pool's
// aggregate counters). Call after Pool.Wait so every job's spans are
// included.
func WriteTelemetry(dir string, tracer *telemetry.Tracer, stats Stats) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: telemetry dir: %w", err)
	}
	tf, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(tf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, "counters.json"))
	if err != nil {
		return err
	}
	defer cf.Close()
	return telemetry.WriteCounterJSON(cf, map[string]any{
		"submitted":          stats.Submitted,
		"unique":             stats.Unique,
		"ran":                stats.Ran,
		"lockstep":           stats.Lockstep,
		"cache_hits":         stats.CacheHits,
		"cache_misses":       stats.CacheMisses,
		"errors":             stats.Errors,
		"cache_write_errors": stats.CacheWriteErrors,
		"total_elapsed_sec":  stats.TotalElapsed.Seconds(),
		"max_elapsed_sec":    stats.MaxElapsed.Seconds(),
	})
}
