package main

import (
	"net"
	"sync/atomic"
)

// wireStats counts what crosses one side of the workload's connections.
// The client side's byte counts are wire_bytes_per_call; Write calls and
// read→write turnarounds are the per-binding syscall-shaped counts.
type wireStats struct {
	conns        atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	writes       atomic.Int64
	turnarounds  atomic.Int64
}

// wireCount is a point-in-time copy of a wireStats.
type wireCount struct {
	conns, bytesRead, bytesWritten, writes, turnarounds int64
}

func (s *wireStats) load() wireCount {
	return wireCount{
		conns:        s.conns.Load(),
		bytesRead:    s.bytesRead.Load(),
		bytesWritten: s.bytesWritten.Load(),
		writes:       s.writes.Load(),
		turnarounds:  s.turnarounds.Load(),
	}
}

func (a wireCount) sub(b wireCount) wireCount {
	return wireCount{
		conns:        a.conns - b.conns,
		bytesRead:    a.bytesRead - b.bytesRead,
		bytesWritten: a.bytesWritten - b.bytesWritten,
		writes:       a.writes - b.writes,
		turnarounds:  a.turnarounds - b.turnarounds,
	}
}

const (
	opNone int32 = iota
	opRead
	opWrite
)

// countConn counts a connection's traffic into a wireStats. A turnaround is
// a Write whose previous operation on this connection was a Read: one per
// request on a ping-pong binding, fewer when writes are batched. lastOp is
// atomic because muxbind reads and writes a connection from two goroutines.
type countConn struct {
	net.Conn
	stats  *wireStats
	lastOp atomic.Int32
}

func newCountConn(c net.Conn, s *wireStats) *countConn {
	s.conns.Add(1)
	return &countConn{Conn: c, stats: s}
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.stats.bytesRead.Add(int64(n))
		c.lastOp.Store(opRead)
	}
	return n, err
}

func (c *countConn) Write(b []byte) (int, error) {
	if c.lastOp.Swap(opWrite) == opRead {
		c.stats.turnarounds.Add(1)
	}
	n, err := c.Conn.Write(b)
	c.stats.writes.Add(1)
	c.stats.bytesWritten.Add(int64(n))
	return n, err
}

// countListener wraps every accepted connection in a countConn.
type countListener struct {
	net.Listener
	stats *wireStats
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newCountConn(c, l.stats), nil
}

// countDialer dials plain loopback TCP and counts the connection. Its type
// is assignable to the tcpbind, httpbind and muxbind Dialer types.
func countDialer(s *wireStats) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return newCountConn(c, s), nil
	}
}
