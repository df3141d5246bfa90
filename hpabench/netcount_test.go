package main

import (
	"io"
	"net"
	"strings"
	"testing"
)

// TestCountingListenerCountsEachDirection sends a known request through a
// counted listener and gets a known reply: the request bytes must land in
// In, the reply bytes in Out, nothing else.
func TestCountingListenerCountsEachDirection(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wc wireCounter
	ln := countingListener{Listener: raw, c: &wc}
	defer ln.Close()
	request := strings.Repeat("a", 10000)
	reply := strings.Repeat("b", 2500)
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		if _, err := io.ReadFull(conn, make([]byte, len(request))); err != nil {
			done <- err
			return
		}
		_, err = io.WriteString(conn, reply)
		done <- err
	}()
	conn, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, request); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(got) != reply {
		t.Fatalf("reply corrupted: %d bytes", len(got))
	}
	if in, out := wc.In.Load(), wc.Out.Load(); in != int64(len(request)) || out != int64(len(reply)) {
		t.Errorf("counted in=%d out=%d, want in=%d out=%d", in, out, len(request), len(reply))
	}
}
