package secaudit

import (
	"encoding/json"
	"io"
)

// MatrixRow is one cell of the tracker x attack x mode x NRH
// conformance matrix: the cell identity plus the oracle verdict and the
// headline activity counters. Rows deliberately carry no engine tag, no
// cache key and no wall-clock, so a matrix is byte-identical across
// reruns and across the event/cycle engines.
type MatrixRow struct {
	Tracker     string `json:"tracker"`      // batch id ("hydra")
	TrackerName string `json:"tracker_name"` // display name ("Hydra")
	Mode        string `json:"mode"`
	NRH         uint32 `json:"nrh"`
	Attack      string `json:"attack"`
	Workload    string `json:"workload"`
	Profile     string `json:"profile"`

	Secure      bool    `json:"secure"`
	Escapes     uint64  `json:"escapes"`
	EscapedRows int     `json:"escaped_rows"`
	MaxCount    uint32  `json:"max_count"`
	Margin      float64 `json:"margin"`

	ACTs         uint64 `json:"acts"`
	InjectedACTs uint64 `json:"injected_acts"`
	Mitigations  uint64 `json:"mitigations"`
	Refreshes    uint64 `json:"refreshes"`
	BulkResets   uint64 `json:"bulk_resets"`
	Throttled    uint64 `json:"throttled"`

	// Attr marks rows whose run carried slowdown attribution; the blame
	// fields aggregate the benign cores' wait cycles lost to the
	// mitigation path itself (blocks, injected counter traffic,
	// throttling) — the security/performance coupling in numbers.
	Attr            bool   `json:"attr,omitempty"`
	BlameMitigation uint64 `json:"blame_mitigation,omitempty"`
	BlameInject     uint64 `json:"blame_inject,omitempty"`
	BlameThrottle   uint64 `json:"blame_throttle,omitempty"`
}

// WriteMatrixJSONL streams rows as one JSON object per line, in the
// given order (the caller's deterministic sweep order).
func WriteMatrixJSONL(w io.Writer, rows []MatrixRow) error {
	enc := json.NewEncoder(w)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			return err
		}
	}
	return nil
}
