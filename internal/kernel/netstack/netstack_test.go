package netstack

import (
	"bytes"
	"errors"
	"testing"
)

func listen(t *testing.T, s *Stack, port uint16) *Socket {
	t.Helper()
	sk := s.NewSocket()
	if err := s.Bind(sk, port); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := s.Listen(sk, 16); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return sk
}

func TestDialAcceptEcho(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)

	client, err := s.Dial(80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := client.ClientWrite([]byte("ping")); err != nil {
		t.Fatal(err)
	}

	conn, err := s.Accept(sk)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	buf := make([]byte, 16)
	n, err := ServerRead(conn, buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if _, err := ServerWrite(conn, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got := client.ClientReadAll(); !bytes.Equal(got, []byte("pong")) {
		t.Fatalf("client read %q", got)
	}
	if s.AcceptedTotal != 1 {
		t.Fatalf("AcceptedTotal = %d", s.AcceptedTotal)
	}
}

func TestAcceptEmptyBacklogWouldBlock(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)
	if _, err := s.Accept(sk); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("Accept on empty backlog: %v", err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	s := NewStack()
	sk := s.NewSocket()
	if err := s.Listen(sk, 1); !errors.Is(err, ErrNotBound) {
		t.Fatalf("Listen unbound: %v", err)
	}
	if _, err := s.Accept(sk); !errors.Is(err, ErrNotListen) {
		t.Fatalf("Accept non-listener: %v", err)
	}
	if _, err := s.Dial(9999); !errors.Is(err, ErrRefused) {
		t.Fatalf("Dial closed port: %v", err)
	}
	listen(t, s, 80)
	sk2 := s.NewSocket()
	if err := s.Bind(sk2, 80); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("double bind: %v", err)
	}
}

func TestBacklogLimitAndOrder(t *testing.T) {
	s := NewStack()
	sk := s.NewSocket()
	if err := s.Bind(sk, 80); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(sk, 2); err != nil {
		t.Fatal(err)
	}
	c1, err := s.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dial(80); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dial(80); err == nil {
		t.Fatal("backlog overflow accepted")
	}
	if got := s.Pending(80); got != 2 {
		t.Fatalf("Pending = %d", got)
	}
	c1.ClientWrite([]byte("first"))
	got, err := s.Accept(sk)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 8)
	n, _ := ServerRead(got, b)
	if string(b[:n]) != "first" {
		t.Fatalf("accept order broken: %q", b[:n])
	}
}

func TestCloseSemantics(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)
	client, _ := s.Dial(80)
	conn, _ := s.Accept(sk)

	// Read with nothing queued and peer open: would block.
	b := make([]byte, 4)
	if _, err := ServerRead(conn, b); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("read empty open conn: %v", err)
	}
	client.ClientWrite([]byte("xy"))
	client.Close()
	// Queued data still readable after close.
	n, err := ServerRead(conn, b)
	if err != nil || string(b[:n]) != "xy" {
		t.Fatalf("read after close: %q %v", b[:n], err)
	}
	// Then EOF.
	n, err = ServerRead(conn, b)
	if n != 0 || err != nil {
		t.Fatalf("EOF read: %d %v", n, err)
	}
	if _, err := ServerWrite(conn, []byte("z")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

func TestGuestConnect(t *testing.T) {
	s := NewStack()
	listen(t, s, 5432)
	sk := s.NewSocket()
	conn, err := s.Connect(sk, 5432)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if sk.State != SockConnected || sk.Conn != conn {
		t.Fatalf("socket state %v", sk.State)
	}
	if s.Pending(5432) != 1 {
		t.Fatal("connection not queued at listener")
	}
}

func TestRecvBufferReusedAndHandedBack(t *testing.T) {
	s := NewStack()
	listen(t, s, 80)
	buf := make([]byte, 0, 64)
	for round := 0; round < 3; round++ {
		c, err := s.Dial(80)
		if err != nil {
			t.Fatal(err)
		}
		// Bytes the guest wrote before the buffer arrived stay in front.
		if _, err := ServerWrite(c, []byte("head:")); err != nil {
			t.Fatal(err)
		}
		c.SetRecvBuffer(buf)
		if _, err := ServerWrite(c, []byte("body")); err != nil {
			t.Fatal(err)
		}
		got := c.ClientReadAll()
		if string(got) != "head:body" {
			t.Fatalf("round %d: ClientReadAll = %q", round, got)
		}
		if &got[:1][0] != &buf[:1][0] {
			t.Fatalf("round %d: response not in the given buffer", round)
		}
		// The connection dropped its reference: later writes do not land
		// in the handed-back buffer.
		if _, err := ServerWrite(c, []byte("late")); err != nil {
			t.Fatal(err)
		}
		if string(got) != "head:body" {
			t.Fatalf("round %d: handed-back buffer changed to %q", round, got)
		}
		if late := c.ClientReadAll(); string(late) != "late" || &late[:1][0] == &buf[:1][0] {
			t.Fatalf("round %d: late write = %q, in the handed-back buffer", round, late)
		}
		buf = got
	}
}
