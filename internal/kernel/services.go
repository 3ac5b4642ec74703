package kernel

import "encoding/binary"

// pSOS⁺ᵐ-style kernel services (paper §4 / Fig. 9): remote objects —
// here named message queues — "internally managed via RPCs" over the
// Kernel Interface. A queue lives on the node that created it; any node
// can resolve its location with Ident (pSOS's object-ident broadcast)
// and send to it; messages are delivered to the owner's registered
// consumer. This is the add-on the clock synchronization is designed to
// coexist with: KI traffic shares the medium and creates the load that
// software-only timestamping suffers from. (Experiments E1/E2 do not
// drive KI traffic; they load the medium with the synthetic frames of
// cluster.Config.BackgroundLoad.)

// KI wire format (inside the KindKernel payload):
//
//	byte 0      op: 1 ident-request, 2 ident-reply, 3 qsend
//	byte 1      name length L
//	bytes 2..   name (L bytes)
//	rest        payload (qsend) / owner station (ident-reply, 2 bytes)
const (
	kiIdentReq  = 1
	kiIdentRep  = 2
	kiQSend     = 3
	kiBroadcast = -1 // forwarded to network.Broadcast by the caller
)

// Services is the per-node kernel-services endpoint.
type Services struct {
	n      *Node
	queues map[string]func(from uint16, msg []byte)
	idents map[string]int // resolved queue name -> owner station
	// pending ident waiters
	waiting map[string][]func(station int)
}

// UseServices attaches the kernel-services dispatcher to the node's KI.
// Call at most once per node.
func UseServices(n *Node) *Services {
	s := &Services{
		n:       n,
		queues:  make(map[string]func(uint16, []byte)),
		idents:  make(map[string]int),
		waiting: make(map[string][]func(int)),
	}
	n.OnKernelMsg(s.onKI)
	return s
}

// CreateQueue registers a named queue on this node; consume receives
// every message sent to it (local or remote).
func (s *Services) CreateQueue(name string, consume func(from uint16, msg []byte)) {
	s.queues[name] = consume
}

// Ident resolves a queue's owner station, calling done when known. A
// local queue resolves immediately; otherwise an ident-request is
// broadcast and the owner replies (pSOS's obj_ident).
func (s *Services) Ident(name string, done func(station int)) {
	if _, local := s.queues[name]; local {
		done(s.n.Station())
		return
	}
	if st, ok := s.idents[name]; ok {
		done(st)
		return
	}
	s.waiting[name] = append(s.waiting[name], done)
	s.n.SendKernelMsg(kiBroadcast, kiEncode(kiIdentReq, name, nil))
}

// Send delivers msg to the named queue, resolving its location first if
// needed.
func (s *Services) Send(name string, msg []byte) {
	if consume, local := s.queues[name]; local {
		consume(s.n.ID, msg)
		return
	}
	body := append([]byte(nil), msg...)
	s.Ident(name, func(station int) {
		s.n.SendKernelMsg(station, kiEncode(kiQSend, name, body))
	})
}

func (s *Services) onKI(from uint16, payload []byte) {
	op, name, body, ok := kiDecode(payload)
	if !ok {
		return
	}
	switch op {
	case kiIdentReq:
		if _, local := s.queues[name]; local {
			var st [2]byte
			binary.BigEndian.PutUint16(st[:], uint16(s.n.Station()))
			s.n.SendKernelMsg(s.n.stationOf(from), kiEncode(kiIdentRep, name, st[:]))
		}
	case kiIdentRep:
		if len(body) < 2 {
			return
		}
		station := int(binary.BigEndian.Uint16(body))
		s.idents[name] = station
		for _, done := range s.waiting[name] {
			done(station)
		}
		delete(s.waiting, name)
	case kiQSend:
		if consume, local := s.queues[name]; local {
			consume(from, body)
		}
	}
}

func kiEncode(op byte, name string, body []byte) []byte {
	out := make([]byte, 0, 2+len(name)+len(body))
	out = append(out, op, byte(len(name)))
	out = append(out, name...)
	return append(out, body...)
}

func kiDecode(p []byte) (op byte, name string, body []byte, ok bool) {
	if len(p) < 2 {
		return 0, "", nil, false
	}
	l := int(p[1])
	if len(p) < 2+l {
		return 0, "", nil, false
	}
	return p[0], string(p[2 : 2+l]), p[2+l:], true
}
