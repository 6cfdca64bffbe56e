package harness

import (
	"encoding/json"
	"io"
	"time"

	"dapper/internal/sim"
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
