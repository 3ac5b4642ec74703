// Artifact writers: JSONL (one Result per line, in stable cell order),
// CSV (flat key statistics for spreadsheet/pandas consumption) and a
// campaign manifest carrying enough metadata to reproduce the run.

package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"ntisim/internal/telemetry"
)

// WriteJSONL writes one compact JSON record per result, in cell order.
// For a fixed spec the bytes are identical regardless of worker count:
// results are keyed by cell ID and wall-clock fields are excluded.
func (c *Campaign) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range c.Results {
		if err := enc.Encode(&c.Results[i]); err != nil {
			return fmt.Errorf("harness: jsonl cell %d: %w", i, err)
		}
	}
	return nil
}

// csvHeader is the flat CSV schema (README "artifact schema").
var csvHeader = []string{
	"cell", "label", "seed",
	"precision_mean_s", "precision_p99_s", "precision_max_s",
	"accuracy_mean_s", "accuracy_max_s",
	"width_mean_s",
	"containment_violations", "samples",
	"rounds", "csps_sent", "csps_used", "csp_use",
	"ext_accepted", "ext_rejected",
	"events", "sim_s", "error",
	// Serving columns are empty for cells without a client population.
	"clients", "served_queries", "served_qps",
	"served_err_p50_s", "served_err_p99_s", "served_err_p999_s", "served_err_max_s",
	// Adversary columns are empty for cells without an adversary spec.
	"traitors", "lies_told", "sources_rejected", "honest_violations",
	// health is the ';'-joined watchdog flag list (empty = healthy or
	// telemetry disabled).
	"health",
}

// WriteCSV writes the key statistics of every cell as one flat row.
func (c *Campaign) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for i := range c.Results {
		r := &c.Results[i]
		row := []string{
			strconv.Itoa(r.Cell), r.Label, strconv.FormatUint(r.Seed, 10),
			f(r.Precision.Mean), f(r.Precision.P99), f(r.Precision.Max),
			f(r.Accuracy.Mean), f(r.Accuracy.Max),
			f(r.Width.Mean),
			strconv.Itoa(r.ContainmentViolations), strconv.Itoa(r.Samples),
			u(r.Sync.Rounds), u(r.Sync.CSPsSent), u(r.Sync.CSPsUsed), f(r.CSPUse),
			u(r.Sync.ExternalAccepted), u(r.Sync.ExternalRejected),
			u(r.Events), f(r.SimS), r.Err,
		}
		if sv := r.Serving; sv != nil {
			row = append(row,
				strconv.Itoa(sv.Clients), u(sv.Queries), f(sv.QPS),
				f(sv.ErrP50S), f(sv.ErrP99S), f(sv.ErrP999S), f(sv.ErrMaxS))
		} else {
			row = append(row, "", "", "", "", "", "", "")
		}
		if av := r.Adversary; av != nil {
			row = append(row,
				strconv.Itoa(av.Traitors), u(av.LiesTold),
				u(av.SourcesRejected), strconv.Itoa(av.HonestViolations))
		} else {
			row = append(row, "", "", "", "")
		}
		row = append(row, strings.Join(r.Health, ";"))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTelemetryJSONL writes every cell's snapshot stream as one
// combined JSONL: each line is a telemetry.Snapshot tagged with its
// cell ID, in cell order. Snapshots are pure functions of (config,
// seed, sim time), so for a fixed spec the bytes are identical at any
// worker count.
func (c *Campaign) WriteTelemetryJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	type line struct {
		Cell int `json:"cell"`
		telemetry.Snapshot
	}
	for i := range c.Results {
		r := &c.Results[i]
		for _, s := range r.Telemetry {
			if err := enc.Encode(line{Cell: r.Cell, Snapshot: s}); err != nil {
				return fmt.Errorf("harness: telemetry jsonl cell %d: %w", r.Cell, err)
			}
		}
	}
	return nil
}

// ManifestPoint records one grid point in the manifest.
type ManifestPoint struct {
	Label  string            `json:"label"`
	Params map[string]string `json:"params,omitempty"`
}

// Manifest describes a campaign run for reproduction: the grid, the
// seeds, and the build/runtime environment.
type Manifest struct {
	Name        string          `json:"name"`
	Cells       int             `json:"cells"`
	Seeds       []uint64        `json:"seeds"`
	Points      []ManifestPoint `json:"points"`
	BaseNodes   int             `json:"base_nodes"`
	WarmupS     float64         `json:"warmup_s"`
	WindowS     float64         `json:"window_s"`
	SampleS     float64         `json:"sample_every_s"`
	DelayProbes int             `json:"delay_probes"`

	Workers    int     `json:"workers"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	VCSRev     string  `json:"vcs_revision,omitempty"`
	WallS      float64 `json:"wall_s"`
	TotalSimS  float64 `json:"total_sim_s"`
	Failed     int     `json:"failed"`
}

// Manifest builds the manifest for an executed campaign.
func (c *Campaign) Manifest() Manifest {
	m := Manifest{
		Name:        c.Spec.Name,
		Cells:       len(c.Results),
		Seeds:       c.Spec.Seeds,
		BaseNodes:   c.Spec.Base.Nodes,
		WarmupS:     c.Spec.WarmupS,
		WindowS:     c.Spec.WindowS,
		SampleS:     c.Spec.SampleEveryS,
		DelayProbes: c.Spec.DelayProbes,
		Workers:     c.Workers,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		VCSRev:      vcsRevision(),
		WallS:       c.WallS,
		TotalSimS:   c.TotalSimS(),
		Failed:      len(c.Failed()),
	}
	for _, p := range c.Spec.Points {
		m.Points = append(m.Points, ManifestPoint{Label: p.Label, Params: p.Params})
	}
	return m
}

// vcsRevision reports the VCS commit stamped into the binary, if any.
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// WriteArtifacts writes <name>.jsonl, <name>.csv and <name>.manifest.json
// into dir (created if needed) and returns the file paths.
func (c *Campaign) WriteArtifacts(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	name := c.Spec.Name
	if name == "" {
		name = "campaign"
	}
	var paths []string
	write := func(suffix string, fn func(io.Writer) error) error {
		p := filepath.Join(dir, name+suffix)
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		paths = append(paths, p)
		return nil
	}
	if err := write(".jsonl", c.WriteJSONL); err != nil {
		return nil, err
	}
	if err := write(".csv", c.WriteCSV); err != nil {
		return nil, err
	}
	err := write(".manifest.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(c.Manifest())
	})
	if err != nil {
		return nil, err
	}
	if c.Spec.Telemetry {
		if err := write(".telemetry.jsonl", c.WriteTelemetryJSONL); err != nil {
			return nil, err
		}
	}
	// Per-cell trace artifacts (Spec.Trace campaigns). One file per
	// cell, named by the stable cell index, written in grid order —
	// byte-identical at any worker count because each cell's tracer is
	// fed by its own single-threaded simulator.
	for i := range c.Results {
		r := &c.Results[i]
		if r.Trace == nil {
			continue
		}
		suffix := fmt.Sprintf(".cell-%03d.trace.jsonl", r.Cell)
		if err := write(suffix, r.Trace.WriteJSONL); err != nil {
			return nil, err
		}
	}
	return paths, nil
}
