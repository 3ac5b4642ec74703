package telemetry

import "ntisim/internal/quantile"

// GaugeValue is a gauge's level and high-water mark at snapshot time.
type GaugeValue struct {
	V  float64 `json:"v"`
	Hi float64 `json:"hi"`
}

// HistValue summarizes a histogram at snapshot time: exact n, min, mean
// and max, sketch quantiles.
type HistValue struct {
	N    uint64  `json:"n"`
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// Snapshot is the state of a registry at a sim time. Everything in it
// is a pure function of (config, seed, sim time), so marshaling one
// (encoding/json sorts map keys) yields identical bytes on every run
// regardless of campaign worker count.
type Snapshot struct {
	T        float64               `json:"t"`
	Counters map[string]uint64     `json:"counters,omitempty"`
	Gauges   map[string]GaugeValue `json:"gauges,omitempty"`
	Hists    map[string]HistValue  `json:"hists,omitempty"`
}

// Capture reads registry r into a Snapshot at sim time t, evaluating
// GaugeFunc callbacks here, never on the hot path. Call it only between
// RunUntil calls: a registry is not thread-safe. A nil registry gives
// an empty snapshot.
func Capture(t float64, r *Registry) Snapshot {
	s := Snapshot{T: t}
	if r == nil {
		return s
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.v
		}
	}
	if len(r.gauges)+len(r.fns) > 0 {
		s.Gauges = make(map[string]GaugeValue, len(r.gauges)+len(r.fns))
		for name, g := range r.gauges {
			s.Gauges[name] = GaugeValue{V: g.v, Hi: g.hi}
		}
		for _, name := range sortedKeys(r.fns) {
			v := r.fns[name]()
			s.Gauges[name] = GaugeValue{V: v, Hi: v}
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistValue, len(r.hists))
		for name, h := range r.hists {
			s.Hists[name] = histValue(h)
		}
	}
	return s
}

// histValue summarizes a histogram for a snapshot.
func histValue(h *quantile.Sketch) HistValue {
	if h.Count() == 0 {
		return HistValue{}
	}
	return HistValue{
		N:    h.Count(),
		Min:  h.Min(),
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P99:  h.Quantile(0.99),
		Max:  h.Max(),
	}
}
