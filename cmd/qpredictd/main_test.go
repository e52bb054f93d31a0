package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderConnectionClosed checks that a client which sends only part
// of its request line has its connection closed once readHeaderTimeout
// passes, instead of holding a server goroutine and socket forever.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /v1/mo")); err != nil {
		t.Fatal(err)
	}
	limit := readHeaderTimeout + time.Second
	conn.SetReadDeadline(start.Add(limit))
	// The server may answer with an error status before it hangs up; what
	// matters is that the connection reaches EOF inside the limit.
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("connection still open %v after a partial request line (read %q, %v)", limit, reply, err)
	}
	t.Logf("connection closed after %v, reply %q", time.Since(start).Round(time.Millisecond), reply)
}
