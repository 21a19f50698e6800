// Package netstack implements the loopback socket layer of the simulated
// kernel. Workload generators act as remote clients: they dial a listening
// port, enqueue request bytes, and read responses, while the guest
// application performs socket/bind/listen/accept/read/write through the
// kernel. Everything is synchronous and deterministic — Accept on an empty
// backlog reports "would block" rather than parking a goroutine — which
// keeps benchmark timelines reproducible.
package netstack

import (
	"errors"
	"fmt"
	"sync"
)

// Errors mirroring errno conditions.
var (
	ErrWouldBlock = errors.New("netstack: operation would block")
	ErrAddrInUse  = errors.New("netstack: address already in use")
	ErrNotBound   = errors.New("netstack: socket not bound")
	ErrNotListen  = errors.New("netstack: socket not listening")
	ErrRefused    = errors.New("netstack: connection refused")
	ErrClosed     = errors.New("netstack: connection closed")
)

// Conn is one direction-pair of byte queues between a client and the guest.
type Conn struct {
	mu sync.Mutex
	// toServer holds bytes written by the client, read by the guest.
	toServer []byte
	// toClient holds bytes written by the guest, read by the client.
	toClient []byte
	closed   bool

	// RemotePort is the simulated client ephemeral port, for diagnostics.
	RemotePort uint16
}

// serverRead moves up to len(buf) request bytes to the guest.
func (c *Conn) serverRead(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.toServer) == 0 {
		if c.closed {
			return 0, nil // EOF
		}
		return 0, ErrWouldBlock
	}
	n := copy(buf, c.toServer)
	c.toServer = c.toServer[n:]
	return n, nil
}

// serverWrite queues response bytes for the client.
func (c *Conn) serverWrite(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	c.toClient = append(c.toClient, buf...)
	return len(buf), nil
}

// ClientWrite enqueues request bytes (workload-generator side).
func (c *Conn) ClientWrite(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	c.toServer = append(c.toServer, buf...)
	return len(buf), nil
}

// SetRecvBuffer hands the connection a receive buffer: the guest's writes
// from now on append into buf[:0], after any bytes still pending. The
// connection owns buf until ClientReadAll hands it back, so a client can
// reuse one buffer across connections instead of growing a fresh one per
// response.
func (c *Conn) SetRecvBuffer(buf []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.toClient = append(buf[:0], c.toClient...)
}

// ClientReadAll drains and returns everything the guest has written. The
// returned slice is the caller's: the connection drops its reference, so a
// buffer given with SetRecvBuffer comes back here, grown as needed.
func (c *Conn) ClientReadAll() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.toClient
	c.toClient = nil
	return out
}

// Close marks the connection closed; subsequent guest reads see EOF.
func (c *Conn) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
}

// Closed reports whether Close has been called.
func (c *Conn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Listener is a bound, listening socket with a backlog of pending
// connections.
type Listener struct {
	Port    uint16
	backlog []*Conn
	maxlog  int
}

// SockState tracks a guest socket through the bind/listen lifecycle.
type SockState int

// Socket lifecycle states.
const (
	SockNew SockState = iota
	SockBound
	SockListening
	SockConnected
)

// Socket is a guest-side socket endpoint.
type Socket struct {
	State SockState
	Port  uint16
	// Conn is set once connected (accepted or connect()ed).
	Conn *Conn
	// Lst is set once listening.
	Lst *Listener
}

// Stack is a single-host loopback network namespace.
type Stack struct {
	mu        sync.Mutex
	listeners map[uint16]*Listener
	nextEphem uint16

	// AcceptedTotal counts accepted connections, for workload statistics.
	AcceptedTotal uint64
}

// NewStack returns an empty loopback stack.
func NewStack() *Stack {
	return &Stack{listeners: map[uint16]*Listener{}, nextEphem: 40000}
}

// NewSocket creates an unbound socket.
func (s *Stack) NewSocket() *Socket { return &Socket{} }

// Bind binds the socket to a port.
func (s *Stack) Bind(sk *Socket, port uint16) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sk.State != SockNew {
		return ErrAddrInUse
	}
	if _, used := s.listeners[port]; used {
		return ErrAddrInUse
	}
	sk.State = SockBound
	sk.Port = port
	return nil
}

// Listen turns a bound socket into a listener with the given backlog.
func (s *Stack) Listen(sk *Socket, backlog int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sk.State != SockBound {
		return ErrNotBound
	}
	if backlog <= 0 {
		backlog = 128
	}
	l := &Listener{Port: sk.Port, maxlog: backlog}
	s.listeners[sk.Port] = l
	sk.State = SockListening
	sk.Lst = l
	return nil
}

// Accept pops a pending connection, or reports ErrWouldBlock.
func (s *Stack) Accept(sk *Socket) (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sk.State != SockListening || sk.Lst == nil {
		return nil, ErrNotListen
	}
	if len(sk.Lst.backlog) == 0 {
		return nil, ErrWouldBlock
	}
	c := sk.Lst.backlog[0]
	sk.Lst.backlog = sk.Lst.backlog[1:]
	s.AcceptedTotal++
	return c, nil
}

// Dial simulates a remote client connecting to port: the new connection is
// placed on the listener's backlog and returned for the client to use.
func (s *Stack) Dial(port uint16) (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.listeners[port]
	if !ok {
		return nil, ErrRefused
	}
	if len(l.backlog) >= l.maxlog {
		return nil, fmt.Errorf("netstack: backlog full on port %d", port)
	}
	c := &Conn{RemotePort: s.nextEphem}
	s.nextEphem++
	if s.nextEphem == 0 {
		s.nextEphem = 40000
	}
	l.backlog = append(l.backlog, c)
	return c, nil
}

// Connect performs a guest-side outbound connection to a listening port on
// the same stack (used by applications that dial out, e.g. a database
// worker connecting to a coordinator).
func (s *Stack) Connect(sk *Socket, port uint16) (*Conn, error) {
	c, err := s.Dial(port)
	if err != nil {
		return nil, err
	}
	sk.State = SockConnected
	sk.Conn = c
	return c, nil
}

// Pending returns the number of queued connections on a port's listener.
func (s *Stack) Pending(port uint16) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.listeners[port]
	if !ok {
		return 0
	}
	return len(l.backlog)
}

// ServerRead is the kernel-facing read on an accepted connection.
func ServerRead(c *Conn, buf []byte) (int, error) { return c.serverRead(buf) }

// ServerWrite is the kernel-facing write on an accepted connection.
func ServerWrite(c *Conn, buf []byte) (int, error) { return c.serverWrite(buf) }
