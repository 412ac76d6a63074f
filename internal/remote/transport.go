package remote

import (
	"fmt"
	"net"
	"sync"
)

// Transport carries requests from the host to one agent. Implementations
// must be safe for concurrent use.
type Transport interface {
	// Call performs one round trip.
	Call(req *Request) (*Response, error)
	// Close releases the transport.
	Close() error
}

// InProc is a Transport that invokes an Agent directly — the zero-cost path
// used by simulations and unit tests.
type InProc struct {
	agent *Agent
}

// NewInProc returns an in-process transport bound to agent.
func NewInProc(agent *Agent) *InProc { return &InProc{agent: agent} }

// Call implements Transport.
func (t *InProc) Call(req *Request) (*Response, error) { return t.agent.Handle(req), nil }

// Close implements Transport.
func (t *InProc) Close() error { return nil }

// TCP is a Transport over a single TCP connection with the binary wire
// protocol. A mutex serializes round trips; the host opens one transport
// per (agent, CPU core) to get multi-queue parallelism, mirroring the
// paper's per-core RDMA connections.
type TCP struct {
	mu   sync.Mutex
	conn net.Conn
}

// DialTCP connects to an agent at addr ("host:port").
func DialTCP(addr string) (*TCP, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	return &TCP{conn: conn}, nil
}

// Call implements Transport.
func (t *TCP) Call(req *Request) (*Response, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := EncodeRequest(t.conn, req); err != nil {
		return nil, err
	}
	return DecodeResponse(t.conn)
}

// Close implements Transport.
func (t *TCP) Close() error { return t.conn.Close() }
