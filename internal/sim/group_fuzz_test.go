package sim

import (
	"fmt"
	"math"
	"testing"
)

// groupProgram is one decoded fuzz input for FuzzGroupMatchesSingleHeap:
// a shard count, a lookahead, one ticker per shard, and an op stream
// that decides which cross-shard posts each tick and each delivered
// post makes. Every time the program produces is offset by an
// irrational multiple of a tiny unit, so events do not share firing
// times: the oracle compares engines on continuous times, where the
// single heap's insertion-order tie-break never comes into play (an
// input that still produces a tie is skipped).
type groupProgram struct {
	shards    int
	lookahead float64
	period    []float64
	start     []float64
	ops       []byte
	horizon   float64
}

func decodeGroupProgram(data []byte) groupProgram {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return byte(31 * (i + 1))
	}
	p := groupProgram{shards: 2 + int(at(0)%4)}
	p.lookahead = 1e-4 * float64(1+at(1)%16)
	p.horizon = p.lookahead * (20.37 + float64(at(2)%40))
	for i := 0; i < p.shards; i++ {
		frac := float64(at(3+2*i)) / 255
		p.period = append(p.period, p.lookahead*(0.1+1.9*frac)+float64(i+1)*math.Pi*1e-9)
		p.start = append(p.start, p.period[i]*(0.5+float64(at(4+2*i))/255)+float64(i+1)*math.Sqrt2*1e-9)
	}
	if n := 3 + 2*p.shards; n < len(data) {
		p.ops = data[n:]
	}
	if len(p.ops) == 0 {
		p.ops = []byte{0x5b}
	}
	return p
}

// groupFire is one fired event: its time and its program-assigned id.
type groupFire struct {
	T  float64
	ID uint64
}

// run executes the program on a Group (grouped) or on one global
// Simulator where every cross-shard post is a plain At, and returns
// each shard's fire log plus the total event count.
func (p groupProgram) run(grouped bool) ([][]groupFire, uint64) {
	sims := make([]*Simulator, p.shards)
	for i := range sims {
		sims[i] = New(uint64(i))
	}
	var g *Group
	var global *Simulator
	if grouped {
		g = NewGroup(p.lookahead, sims, nil)
	} else {
		global = New(0)
		for i := range sims {
			sims[i] = global
		}
	}
	post := func(src, dst int, at float64, fn func()) {
		if grouped {
			g.Post(src, dst, at, fn)
		} else {
			global.At(at, fn)
		}
	}

	logs := make([][]groupFire, p.shards)
	// Ids are drawn from the posting shard's own counter, so they are
	// independent of how the engine interleaves shards.
	next := make([]uint64, p.shards)
	newID := func(src int) uint64 {
		next[src]++
		return uint64(src)<<32 | next[src]
	}
	// emit makes the posts op asks for from shard from: op&3 posts, to
	// destinations and delays picked by the upper bits. A delivered post
	// may forward once more, and with op's top bit it also schedules a
	// local follow-up on its destination.
	var emit func(from int, op byte, hop int)
	emit = func(from int, op byte, hop int) {
		for j := 0; j < int(op&3); j++ {
			to := (from + 1 + int(op>>2)%p.shards + j) % p.shards
			d := p.lookahead*(1+float64(int(op>>4)+j)/7) + float64(from+1)*math.E*1e-10
			id := newID(from)
			post(from, to, sims[from].Now()+d, func() {
				logs[to] = append(logs[to], groupFire{sims[to].Now(), id})
				if hop == 0 {
					emit(to, p.ops[int(id)%len(p.ops)]>>1, hop+1)
				}
				if op&0x80 != 0 {
					local := newID(to)
					sims[to].At(sims[to].Now()+p.lookahead*0.3+float64(to+1)*math.Pi*1e-11, func() {
						logs[to] = append(logs[to], groupFire{sims[to].Now(), local})
					})
				}
			})
		}
	}
	for i := 0; i < p.shards; i++ {
		i := i
		k := 0
		sims[i].Every(p.start[i], p.period[i], func() {
			logs[i] = append(logs[i], groupFire{sims[i].Now(), uint64(i)<<32 | 1<<31 | uint64(k)})
			emit(i, p.ops[(k*p.shards+i)%len(p.ops)], 0)
			k++
		})
	}
	if grouped {
		g.RunUntil(p.horizon / 3)
		g.RunUntil(p.horizon)
		return logs, g.EventCount()
	}
	global.RunUntil(p.horizon / 3)
	global.RunUntil(p.horizon)
	return logs, global.EventCount()
}

// FuzzGroupMatchesSingleHeap is the oracle for the conservative
// composition: a random program of tickers and cross-shard posts (every
// post at least one lookahead ahead) must fire exactly the same events,
// at the same times and in the same order on every shard, whether it
// runs on a Group or on one global Simulator.
func FuzzGroupMatchesSingleHeap(f *testing.F) {
	f.Add([]byte{0, 9, 7, 128, 40, 255, 3, 0x5b, 0x13, 0xc7})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeGroupProgram(data)
		got, gotN := p.run(true)
		for _, log := range got {
			for k := 1; k < len(log); k++ {
				if log[k].T == log[k-1].T {
					t.Skip("tied firing times: outside the oracle's continuous-time domain")
				}
			}
		}
		want, wantN := p.run(false)
		for i := range want {
			if err := sameFires(got[i], want[i]); err != nil {
				t.Fatalf("shard %d of %d (lookahead %v): %v", i, p.shards, p.lookahead, err)
			}
		}
		if gotN != wantN {
			t.Fatalf("EventCount: group %d, single heap %d", gotN, wantN)
		}
	})
}

func sameFires(got, want []groupFire) error {
	for k := 0; k < len(got) && k < len(want); k++ {
		if got[k] != want[k] {
			return fmt.Errorf("fire %d: group %+v, single heap %+v", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("group fired %d events, single heap %d", len(got), len(want))
	}
	return nil
}
