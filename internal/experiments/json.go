package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// ReportSchema identifies the JSON layout emitted by WriteJSON, bumped on
// breaking changes so saved reports can tell formats apart. v2 dropped the
// serving micro-suites (store, tier, obs, trace, kernel, patch) that v1
// carried next to the experiments.
const ReportSchema = "ccbench/v2"

// JSONExperiment is one experiment in a machine-readable report: the table
// (header + string cells, exactly as rendered) plus its wall time.
type JSONExperiment struct {
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	Reproduces string     `json:"reproduces"`
	Header     []string   `json:"header"`
	Rows       [][]string `json:"rows"`
	Notes      []string   `json:"notes,omitempty"`
	ElapsedNS  int64      `json:"elapsed_ns"`
}

// JSONReport is the top-level document: the suite configuration and every
// experiment that ran.
type JSONReport struct {
	Schema      string           `json:"schema"`
	GoVersion   string           `json:"go_version"`
	Seed        int64            `json:"seed"`
	Quick       bool             `json:"quick"`
	Sizes       []int            `json:"sizes"`
	Experiments []JSONExperiment `json:"experiments"`
}

// RunJSON executes the selected experiments and assembles the report,
// timing each experiment individually.
func RunJSON(ids []string, s Suite) (JSONReport, error) {
	s = s.withDefaults()
	report := JSONReport{
		Schema:    ReportSchema,
		GoVersion: runtime.Version(),
		Seed:      s.Seed,
		Quick:     s.Quick,
		Sizes:     s.Sizes,
	}
	for _, id := range ids {
		start := time.Now()
		table, err := ByID(id, s)
		if err != nil {
			return JSONReport{}, err
		}
		report.Experiments = append(report.Experiments, JSONExperiment{
			ID:         table.ID,
			Title:      table.Title,
			Reproduces: table.Reproduces,
			Header:     table.Header,
			Rows:       table.Rows,
			Notes:      table.Notes,
			ElapsedNS:  time.Since(start).Nanoseconds(),
		})
	}
	return report, nil
}

// WriteJSON renders a report as indented JSON.
func WriteJSON(w io.Writer, report JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
