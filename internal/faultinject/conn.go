package faultinject

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ConnFaults describes deterministic faults injected into one connection.
// The zero value injects nothing.
//
// The kills count bytes, not Read or Write calls: how many calls a byte
// stream takes depends on TCP segmentation and on how the codec above
// buffers, so a call-count trigger lands at a different point of the
// protocol from run to run (a handshake that arrives in two segments is
// killed halfway). A byte offset names the same point every time.
type ConnFaults struct {
	// CloseAfterWriteBytes closes the connection once this many bytes have
	// been written (0 disables) — the mid-stream peer kill. The write that
	// crosses the limit delivers the bytes up to it and then fails, so the
	// peer sees a frame torn at exactly that offset; a write ending on the
	// limit succeeds and the next one fails.
	CloseAfterWriteBytes int
	// CloseAfterReadBytes closes the connection once this many bytes have
	// been read (0 disables): reads are clipped at the limit, and the first
	// read after it fails. Setting it to the handshake's length plus the
	// frames the test wants delivered kills the connection right after
	// them, however the bytes were segmented.
	CloseAfterReadBytes int
	// WriteDelay is added before every write — a slow or congested link.
	WriteDelay time.Duration
	// CorruptWrite flips the low bit of every byte of the Nth write
	// (1-based; 0 disables) — a corrupt frame on the wire. The peer's
	// decoder must reject it and close the connection without panicking.
	CorruptWrite int
}

// faultConn wraps a net.Conn applying ConnFaults. Counters are atomic:
// reads and writes may come from different goroutines.
type faultConn struct {
	net.Conn
	f       ConnFaults
	writes  atomic.Int64 // Write calls, for CorruptWrite
	written atomic.Int64 // bytes written
	read    atomic.Int64 // bytes read
}

// Wrap applies the fault description to a connection. A zero ConnFaults
// returns the connection unchanged.
func Wrap(c net.Conn, f ConnFaults) net.Conn {
	if f == (ConnFaults{}) {
		return c
	}
	return &faultConn{Conn: c, f: f}
}

func (c *faultConn) Write(p []byte) (int, error) {
	nth := c.writes.Add(1)
	if c.f.WriteDelay > 0 {
		time.Sleep(c.f.WriteDelay)
	}
	if c.f.CorruptWrite > 0 && nth == int64(c.f.CorruptWrite) {
		corrupted := make([]byte, len(p))
		for i, b := range p {
			corrupted[i] = b ^ 0x01
		}
		p = corrupted
	}
	if lim := int64(c.f.CloseAfterWriteBytes); lim > 0 {
		room := lim - c.written.Load()
		if room <= 0 {
			c.Conn.Close()
			return 0, net.ErrClosed
		}
		if int64(len(p)) > room {
			n, _ := c.Conn.Write(p[:room])
			c.written.Add(int64(n))
			c.Conn.Close()
			return n, net.ErrClosed
		}
	}
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

func (c *faultConn) Read(p []byte) (int, error) {
	if lim := int64(c.f.CloseAfterReadBytes); lim > 0 {
		room := lim - c.read.Load()
		if room <= 0 {
			c.Conn.Close()
			return 0, net.ErrClosed
		}
		if int64(len(p)) > room {
			p = p[:room]
		}
	}
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// Sequence returns a connection-wrap hook that applies faults[k] to the
// k-th wrapped connection (in wrap order) and passes later connections
// through untouched. It is the transport's fault-injection entry point:
// "kill the first connection after its first 100 bytes, let the
// reconnection live" is Sequence(ConnFaults{CloseAfterWriteBytes: 100}).
func Sequence(faults ...ConnFaults) func(net.Conn) net.Conn {
	var mu sync.Mutex
	next := 0
	return func(c net.Conn) net.Conn {
		mu.Lock()
		defer mu.Unlock()
		if next < len(faults) {
			f := faults[next]
			next++
			return Wrap(c, f)
		}
		return c
	}
}
