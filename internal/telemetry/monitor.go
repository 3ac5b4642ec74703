package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Monitor is the live, wall-clock side of telemetry: the campaign harness
// reports cell lifecycle events and latest snapshots into it, and it serves
// them over HTTP for cmd/ntitop (/campaign.json) and Prometheus-style
// scrapers (/metrics). Unlike Registry it is mutex-protected (the worker
// pool writes concurrently) and nothing it holds ever reaches an artifact
// — wall-clock numbers are not deterministic and must stay out of JSONL.
// All methods are nil-safe so the harness can thread an optional *Monitor
// without branching.
type Monitor struct {
	mu      sync.Mutex
	name    string
	total   int
	started time.Time
	done    int
	failed  int
	simS    float64
	workers map[int]*workerState
	health  map[string][]string
	last    Snapshot
	lastOK  bool
	ln      net.Listener
	srv     *http.Server
}

type workerState struct {
	Cells     int     `json:"cells"`
	BusyS     float64 `json:"busy_s"`
	SimS      float64 `json:"sim_s"`
	Current   string  `json:"current,omitempty"`
	busySince time.Time
}

// WorkerStatus is one worker's row in a CampaignStatus.
type WorkerStatus struct {
	ID      int     `json:"id"`
	Cells   int     `json:"cells"`
	BusyS   float64 `json:"busy_s"`
	SimSPS  float64 `json:"sim_s_per_s"`
	Current string  `json:"current,omitempty"`
}

// CampaignStatus is the /campaign.json payload polled by cmd/ntitop.
type CampaignStatus struct {
	Name     string              `json:"name"`
	Total    int                 `json:"total"`
	Done     int                 `json:"done"`
	Failed   int                 `json:"failed"`
	ElapsedS float64             `json:"elapsed_s"`
	EtaS     float64             `json:"eta_s"`
	SimSPS   float64             `json:"sim_s_per_s"`
	Workers  []WorkerStatus      `json:"workers,omitempty"`
	Health   map[string][]string `json:"health,omitempty"`
	Snapshot *Snapshot           `json:"snapshot,omitempty"`
}

// NewMonitor returns an idle monitor; call Serve to expose it.
func NewMonitor() *Monitor {
	return &Monitor{workers: map[int]*workerState{}, health: map[string][]string{}}
}

// Begin resets the monitor for a campaign of total cells.
func (m *Monitor) Begin(name string, total int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.name = name
	m.total = total
	m.started = time.Now()
	m.done, m.failed, m.simS = 0, 0, 0
	m.workers = map[int]*workerState{}
	m.health = map[string][]string{}
	m.lastOK = false
}

// CellStart marks worker as busy on cell.
func (m *Monitor) CellStart(worker int, cell string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.worker(worker)
	w.Current = cell
	w.busySince = time.Now()
}

// CellEnd marks the cell finished. simS is the simulated span covered,
// health the cell's watchdog flags (kept only when non-empty).
func (m *Monitor) CellEnd(worker int, cell string, simS float64, health []string, failed bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.worker(worker)
	if !w.busySince.IsZero() {
		w.BusyS += time.Since(w.busySince).Seconds()
		w.busySince = time.Time{}
	}
	w.Current = ""
	w.Cells++
	w.SimS += simS
	m.done++
	if failed {
		m.failed++
	}
	m.simS += simS
	if len(health) > 0 {
		m.health[cell] = health
	}
}

// Publish records the latest merged snapshot (any cell; last write wins).
func (m *Monitor) Publish(s Snapshot) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.last = s
	m.lastOK = true
	m.mu.Unlock()
}

func (m *Monitor) worker(id int) *workerState {
	w := m.workers[id]
	if w == nil {
		w = &workerState{}
		m.workers[id] = w
	}
	return w
}

// Status assembles the current CampaignStatus.
func (m *Monitor) Status() CampaignStatus {
	if m == nil {
		return CampaignStatus{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := CampaignStatus{Name: m.name, Total: m.total, Done: m.done, Failed: m.failed}
	elapsed := 0.0
	if !m.started.IsZero() {
		elapsed = time.Since(m.started).Seconds()
	}
	st.ElapsedS = elapsed
	if m.done > 0 && m.done < m.total && elapsed > 0 {
		st.EtaS = elapsed / float64(m.done) * float64(m.total-m.done)
	}
	if elapsed > 0 {
		st.SimSPS = m.simS / elapsed
	}
	ids := make([]int, 0, len(m.workers))
	for id := range m.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w := m.workers[id]
		busy := w.BusyS
		if !w.busySince.IsZero() {
			busy += time.Since(w.busySince).Seconds()
		}
		ws := WorkerStatus{ID: id, Cells: w.Cells, BusyS: busy, Current: w.Current}
		if busy > 0 {
			ws.SimSPS = w.SimS / busy
		}
		st.Workers = append(st.Workers, ws)
	}
	if len(m.health) > 0 {
		st.Health = make(map[string][]string, len(m.health))
		for k, v := range m.health {
			st.Health[k] = v
		}
	}
	if m.lastOK {
		snap := m.last
		st.Snapshot = &snap
	}
	return st
}

// Serve binds addr (host:port; port 0 picks a free one) and serves
// /campaign.json and /metrics until Close. Returns the bound address.
func (m *Monitor) Serve(addr string) (string, error) {
	if m == nil {
		return "", fmt.Errorf("telemetry: Serve on nil Monitor")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/campaign.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		WriteProm(w, m.Status())
	})
	m.mu.Lock()
	m.ln = ln
	m.srv = &http.Server{Handler: mux}
	m.mu.Unlock()
	go m.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the HTTP server, if serving.
func (m *Monitor) Close() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	srv := m.srv
	m.srv, m.ln = nil, nil
	m.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// WriteProm renders a CampaignStatus in the Prometheus text exposition
// format: campaign progress first, then the latest snapshot's counters,
// gauges (with _hi companions) and histogram summaries, all under the
// nti_ prefix.
func WriteProm(w interface{ Write([]byte) (int, error) }, st CampaignStatus) {
	fmt.Fprintf(w, "nti_cells_total %d\n", st.Total)
	fmt.Fprintf(w, "nti_cells_done %d\n", st.Done)
	fmt.Fprintf(w, "nti_cells_failed %d\n", st.Failed)
	fmt.Fprintf(w, "nti_campaign_elapsed_seconds %g\n", st.ElapsedS)
	fmt.Fprintf(w, "nti_campaign_sim_seconds_per_second %g\n", st.SimSPS)
	if st.Snapshot == nil {
		return
	}
	s := st.Snapshot
	fmt.Fprintf(w, "nti_snapshot_sim_time_seconds %g\n", s.T)
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "%s %d\n", promName(name), s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		fmt.Fprintf(w, "%s %g\n", promName(name), g.V)
		fmt.Fprintf(w, "%s_hi %g\n", promName(name), g.Hi)
	}
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		base := promName(name)
		fmt.Fprintf(w, "%s_count %d\n", base, h.N)
		fmt.Fprintf(w, "%s_mean %g\n", base, h.Mean)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %g\n", base, h.P50)
		fmt.Fprintf(w, "%s{quantile=\"0.9\"} %g\n", base, h.P90)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %g\n", base, h.P99)
	}
}

// promName converts a registry key ("sim.queue_depth") to a Prometheus
// series name ("nti_sim_queue_depth").
func promName(key string) string {
	return "nti_" + strings.NewReplacer(".", "_", "-", "_", "/", "_").Replace(key)
}
