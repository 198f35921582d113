package main

import (
	"io"
	"net"
	"testing"
)

// pipePair returns the two ends of an in-memory connection, each counted
// into its own wireStats.
func pipePair() (client, server net.Conn, cs, ss *wireStats) {
	a, b := net.Pipe()
	cs, ss = new(wireStats), new(wireStats)
	return newCountConn(a, cs), newCountConn(b, ss), cs, ss
}

func TestCountConnCountsExactly(t *testing.T) {
	client, server, cs, ss := pipePair()
	defer client.Close()
	defer server.Close()

	// Two ping-pong exchanges; the second request is written in two pieces.
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		for _, want := range []int{10, 7} {
			if _, err := io.ReadFull(server, buf[:want]); err != nil {
				done <- err
				return
			}
			if _, err := server.Write([]byte("reply")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	reply := make([]byte, 5)
	mustWrite := func(b string) {
		t.Helper()
		if _, err := client.Write([]byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("0123456789")
	if _, err := io.ReadFull(client, reply); err != nil {
		t.Fatal(err)
	}
	mustWrite("0123")
	mustWrite("456")
	if _, err := io.ReadFull(client, reply); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	got := cs.load()
	want := wireCount{conns: 1, bytesWritten: 17, bytesRead: 10, writes: 3, turnarounds: 1}
	if got != want {
		t.Errorf("client side counted %+v, want %+v", got, want)
	}
	// The server's first write follows a read, and so does its second.
	if got, want := ss.load(), (wireCount{conns: 1, bytesWritten: 10, bytesRead: 17, writes: 2, turnarounds: 2}); got != want {
		t.Errorf("server side counted %+v, want %+v", got, want)
	}
	if d := cs.load().sub(wireCount{bytesWritten: 10, writes: 1}); d.bytesWritten != 7 || d.writes != 2 {
		t.Errorf("sub gave %+v", d)
	}
}

func TestCountListenerAndDialerWrapEveryConn(t *testing.T) {
	ss, cs := new(wireStats), new(wireStats)
	l, err := listen(ss)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	dial := countDialer(cs)
	for i := 0; i < 2; i++ {
		c, err := dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte("abc")); err != nil {
			t.Fatal(err)
		}
		s := <-accepted
		defer s.Close()
		if _, err := io.ReadFull(s, make([]byte, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := cs.load(); got.conns != 2 || got.bytesWritten != 6 || got.writes != 2 {
		t.Errorf("dialer side counted %+v", got)
	}
	if got := ss.load(); got.conns != 2 || got.bytesRead != 6 {
		t.Errorf("listener side counted %+v", got)
	}
}
