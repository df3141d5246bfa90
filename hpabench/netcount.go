package main

import (
	"net"
	"sync/atomic"
)

// wireCounter totals the bytes crossing a listener's accepted connections,
// per direction, as seen from the serving side: In is what peers sent
// (task arguments, for a worker), Out is what the server wrote back
// (replies).
type wireCounter struct {
	In, Out atomic.Int64
}

// countingListener wraps a listener so every accepted connection adds its
// traffic to a shared wireCounter. The program under test is handed the
// wrapped listener and never knows.
type countingListener struct {
	net.Listener
	c *wireCounter
}

// Accept implements net.Listener.
func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.In.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.Out.Add(int64(n))
	return n, err
}
