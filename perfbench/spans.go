package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a public API of the
// simulator. Parent links a call to the repetition or campaign that
// caused it; spans of one repetition share its root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A
// nil *spanLog still times calls but records nothing, which is how the
// untraced runs use it.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// timer is an open span.
type timer struct {
	log    *spanLog
	id     int
	parent int
	name   string
	start  time.Time
}

func (l *spanLog) start(name string, parent int) timer {
	t := timer{log: l, parent: parent, name: name, start: time.Now()}
	if l != nil {
		// IDs are assigned at start so children can name their parent;
		// the slot is filled when the span stops.
		l.spans = append(l.spans, span{})
		t.id = len(l.spans)
	}
	return t
}

// stop closes the span and returns its duration in seconds.
func (t timer) stop() float64 {
	end := time.Now()
	if t.log != nil {
		t.log.record(t.id, t.parent, t.name, t.start, end)
	}
	return end.Sub(t.start).Seconds()
}

// record fills span id (0 appends a new span, for spans timed outside
// the benchmark, such as harness cells).
func (l *spanLog) record(id, parent int, name string, start, end time.Time) {
	s := span{Parent: parent, Name: name,
		StartUS: float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(l.t0).Nanoseconds()) / 1e3}
	if id == 0 {
		l.spans = append(l.spans, s)
		id = len(l.spans)
	}
	s.ID = id
	l.spans[id-1] = s
}

// durations returns the durations in seconds of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
