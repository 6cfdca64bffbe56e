package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"dapper/internal/sim"
	"dapper/internal/stats"
)

// Record is one completed run as Pool.Records hands it back.
type Record struct {
	Key     string        `json:"key"`
	Desc    Descriptor    `json:"desc"`
	Cached  bool          `json:"cached"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Result  sim.Result    `json:"result"`
}

// WriteJSONL writes one JSON object per record and line: the full
// descriptor and result, for external analysis pipelines.
func WriteJSONL(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// csvHeader is the fixed CSV column set: run identity, then the
// headline metrics every sweep analysis wants.
var csvHeader = []string{
	"key", "tracker", "mode", "nrh", "workload", "attack", "benign4",
	"channels", "rows_per_bank", "llc_bytes", "warmup", "measure", "seed",
	"cached", "elapsed_sec",
	"ipc_mean", "cycles", "llc_hit_rate",
	"acts", "reads", "writes", "refs", "vrr", "rfmsb", "drfmsb",
	"bulk_rows", "mitigations", "victim_refreshes", "throttled",
}

// WriteCSV writes a fixed-schema CSV of run summaries: the header, then
// one row per record. No records write nothing, not even the header.
func WriteCSV(w io.Writer, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range recs {
		d, res := r.Desc, r.Result
		row := []string{
			r.Key, d.Tracker, d.Mode, u32(d.NRH), d.Workload, d.Attack,
			strconv.FormatBool(d.Benign4),
			strconv.Itoa(d.Geometry.Channels), u32(d.Geometry.RowsPerBank),
			strconv.Itoa(d.LLCBytes),
			strconv.FormatInt(d.Warmup, 10), strconv.FormatInt(d.Measure, 10),
			strconv.FormatUint(d.Seed, 10),
			strconv.FormatBool(r.Cached),
			fmt.Sprintf("%.3f", r.Elapsed.Seconds()),
			fmt.Sprintf("%.4f", stats.Mean(res.IPC)),
			strconv.FormatInt(res.Cycles, 10),
			fmt.Sprintf("%.4f", res.LLCHitRate),
			u64(res.Counters.ACT), u64(res.Counters.RD), u64(res.Counters.WR),
			u64(res.Counters.REF), u64(res.Counters.VRR),
			u64(res.Counters.RFMsb), u64(res.Counters.DRFMsb),
			u64(res.Counters.BulkRows),
			u64(res.Tracker.Mitigations), u64(res.Tracker.VictimRefreshes),
			u64(res.Tracker.Throttled),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func u64(v uint64) string { return strconv.FormatUint(v, 10) }
func u32(v uint32) string { return strconv.FormatUint(uint64(v), 10) }
