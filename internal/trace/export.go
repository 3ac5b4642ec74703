// Exporters. Both formats are byte-deterministic for a given record
// sequence: records are written in emission order with fixed number
// formatting, and no wall-clock, hostname or map-order data is
// involved anywhere.
//
//   - JSONL is the compact archival schema shared by cmd/ntitrace -json
//     and the harness's per-cell campaign artifacts; cmd/ntiflight
//     consumes it.
//   - WritePerfetto emits Chrome/Perfetto trace-event JSON: one thread
//     per node, the frame serialization as a duration slice, every
//     flight-path event as a slice carrying flow arrows that link a
//     CSP's send → latch → DMA → arrival chain across nodes.

package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// jsonRecord is the JSONL wire form of a Record.
type jsonRecord struct {
	Seq  uint64  `json:"seq"`
	T    float64 `json:"t"`
	Kind string  `json:"k"`
	Node int32   `json:"node"`
	Ch   int8    `json:"ch,omitempty"`
	A    uint64  `json:"a,omitempty"`
	B    uint64  `json:"b,omitempty"`
	V    float64 `json:"v,omitempty"`
}

// WriteJSONL writes one compact JSON record per line, in emission
// order.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		r := &recs[i]
		jr := jsonRecord{
			Seq: r.Seq, T: r.T, Kind: r.Kind.String(),
			Node: r.Node, Ch: r.Ch, A: r.A, B: r.B, V: r.V,
		}
		if err := enc.Encode(&jr); err != nil {
			return fmt.Errorf("trace: jsonl record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// WriteJSONL exports the tracer's retained records (see Records).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, t.Records())
}

// ReadJSONL parses records previously written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var jr jsonRecord
		if err := json.Unmarshal(sc.Bytes(), &jr); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		k, ok := KindFromName(jr.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", line, jr.Kind)
		}
		out = append(out, Record{
			T: jr.T, Seq: jr.Seq, A: jr.A, B: jr.B, V: jr.V,
			Node: jr.Node, Ch: jr.Ch, Kind: k,
		})
	}
	return out, sc.Err()
}

// flightPathKinds are the kinds that participate in a CSP's flow chain
// (A = frame id on all of them).
func isFlightPathKind(k Kind) bool {
	switch k {
	case KindCSPSend, KindTxTrigger, KindFrameTx, KindFrameLost,
		KindFrameRx, KindRxTrigger, KindRxDone, KindCSPArrival:
		return true
	}
	return false
}

// pf formats a Perfetto timestamp/duration (µs, fixed 3 decimals —
// nanosecond resolution, byte-stable).
func pf(seconds float64) string {
	return strconv.FormatFloat(seconds*1e6, 'f', 3, 64)
}

// perfettoTid maps a record's node id to a stable thread id (>= 1;
// Perfetto dislikes tid 0 and negative ids).
func perfettoTid(node int32) int32 { return node + 3 }

// perfettoThreadName labels a node's thread.
func perfettoThreadName(node int32) string {
	switch node {
	case -2:
		return "background load"
	case -1:
		return "sim kernel / medium"
	}
	return fmt.Sprintf("node %d", node)
}

// WritePerfetto writes Chrome/Perfetto trace-event JSON ("trace event
// format", the JSON flavor chrome://tracing and ui.perfetto.dev both
// load). Every record becomes a slice on its node's thread; records on
// the flight path additionally carry flow steps with the frame id, so
// the UI draws arrows along the send → latch → DMA → arrival chain,
// and a CSP arrival opens a second flow toward its round update.
func WritePerfetto(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	// Thread-name metadata, sorted for determinism.
	nodes := map[int32]bool{}
	for i := range recs {
		nodes[recs[i].Node] = true
	}
	ids := make([]int, 0, len(nodes))
	for n := range nodes {
		ids = append(ids, int(n))
	}
	sort.Ints(ids)
	for _, n := range ids {
		emit(`{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":%q}}`,
			perfettoTid(int32(n)), perfettoThreadName(int32(n)))
	}

	flowSeen := map[uint64]bool{}  // frame-id flows
	roundSeen := map[uint64]bool{} // (node,round) arrival→update flows
	for i := range recs {
		r := &recs[i]
		tid := perfettoTid(r.Node)
		name := r.Kind.String()
		// Duration slices get their real extent; instantaneous stages
		// get a hair of width so flow arrows have something to bind to.
		dur := "0.300"
		if (r.Kind == KindFrameTx || r.Kind == KindFrameLost) && r.V > 0 {
			dur = pf(r.V)
		}
		emit(`{"ph":"X","name":%q,"pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"seq":%d,"a":%d,"b":%d,"v":%s}}`,
			name, tid, pf(r.T), dur, r.Seq, r.A, r.B,
			strconv.FormatFloat(r.V, 'g', -1, 64))
		if isFlightPathKind(r.Kind) {
			ph := "t"
			if !flowSeen[r.A] {
				ph, flowSeen[r.A] = "s", true
			} else if r.Kind == KindCSPArrival {
				ph = "f"
			}
			bp := ""
			if ph == "f" {
				bp = `,"bp":"e"`
			}
			emit(`{"ph":%q,"id":%d,"name":"csp","cat":"flight","pid":1,"tid":%d,"ts":%s%s}`,
				ph, r.A, tid, pf(r.T), bp)
		}
		// Arrival → round-update flows, keyed by (receiver, round).
		if r.Kind == KindCSPArrival || r.Kind == KindRoundUpdate {
			key := uint64(uint32(r.Node))<<32 | r.B&0xFFFFFFFF
			if r.Kind == KindRoundUpdate {
				key = uint64(uint32(r.Node))<<32 | r.A&0xFFFFFFFF
			}
			id := key | 1<<63
			ph := "t"
			if !roundSeen[key] {
				ph, roundSeen[key] = "s", true
			} else if r.Kind == KindRoundUpdate {
				ph = "f"
			}
			bp := ""
			if ph == "f" {
				bp = `,"bp":"e"`
			}
			emit(`{"ph":%q,"id":%d,"name":"round","cat":"round","pid":1,"tid":%d,"ts":%s%s}`,
				ph, id, tid, pf(r.T), bp)
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
