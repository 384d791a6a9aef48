package faultinject

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// pipePair returns the two ends of an in-memory connection.
func pipePair() (net.Conn, net.Conn) { return net.Pipe() }

func TestWrapZeroFaultsIsIdentity(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	if Wrap(a, ConnFaults{}) != a {
		t.Fatal("zero ConnFaults should return the original conn")
	}
}

// drain reads c until it fails, returning everything read.
func drain(c net.Conn) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		var all []byte
		buf := make([]byte, 16)
		for {
			n, err := c.Read(buf)
			all = append(all, buf[:n]...)
			if err != nil {
				out <- all
				return
			}
		}
	}()
	return out
}

func TestCloseAfterWriteBytes(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	w := Wrap(a, ConnFaults{CloseAfterWriteBytes: 5})
	got := drain(b)
	if n, err := w.Write([]byte("ok")); err != nil || n != 2 {
		t.Fatalf("write inside the limit: n=%d err=%v", n, err)
	}
	// Crossing the limit: the bytes up to it are delivered, then the kill.
	if n, err := w.Write([]byte("boom")); err == nil || n != 3 {
		t.Fatalf("crossing write: n=%d err=%v, want 3 bytes and an error", n, err)
	}
	if _, err := w.Write([]byte("after")); err == nil {
		t.Fatal("writes after the close should keep failing")
	}
	if delivered := string(<-got); delivered != "okboo" {
		t.Fatalf("peer read %q, want exactly the first 5 bytes", delivered)
	}
}

func TestCloseAfterReadBytes(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	r := Wrap(a, ConnFaults{CloseAfterReadBytes: 3})
	go b.Write([]byte("hello"))
	// One large read is clipped at the limit however the bytes arrived.
	buf := make([]byte, 16)
	var read []byte
	for len(read) < 3 {
		n, err := r.Read(buf)
		if err != nil {
			t.Fatalf("read inside the limit failed: %v", err)
		}
		read = append(read, buf[:n]...)
	}
	if string(read) != "hel" {
		t.Fatalf("read %q, want the first 3 bytes", read)
	}
	if _, err := r.Read(buf); err == nil {
		t.Fatal("the read past the limit should have failed")
	}
}

func TestCorruptWriteFlipsBytes(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	w := Wrap(a, ConnFaults{CorruptWrite: 2})
	got := make(chan []byte, 2)
	go func() {
		for i := 0; i < 2; i++ {
			buf := make([]byte, 4)
			n, err := b.Read(buf)
			if err != nil {
				close(got)
				return
			}
			got <- buf[:n]
		}
	}()
	w.Write([]byte{0x10, 0x20})
	w.Write([]byte{0x10, 0x20})
	first, second := <-got, <-got
	if !bytes.Equal(first, []byte{0x10, 0x20}) {
		t.Fatalf("first write corrupted: %x", first)
	}
	if !bytes.Equal(second, []byte{0x11, 0x21}) {
		t.Fatalf("second write not corrupted as specified: %x", second)
	}
}

func TestWriteDelay(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	w := Wrap(a, ConnFaults{WriteDelay: 30 * time.Millisecond})
	go func() {
		buf := make([]byte, 4)
		b.Read(buf)
	}()
	start := time.Now()
	if _, err := w.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("write returned after %v, want >= ~30ms of injected delay", elapsed)
	}
}

func TestSequenceAppliesInOrder(t *testing.T) {
	hook := Sequence(ConnFaults{CloseAfterWriteBytes: 1}, ConnFaults{})
	a1, b1 := pipePair()
	defer b1.Close()
	c1 := hook(a1)
	drain(b1)
	if _, err := c1.Write([]byte("xy")); err == nil {
		t.Fatal("first connection should die on its first write")
	}
	a2, b2 := pipePair()
	defer a2.Close()
	defer b2.Close()
	if hook(a2) != a2 {
		t.Fatal("second connection should pass through unwrapped (zero faults)")
	}
	a3, b3 := pipePair()
	defer a3.Close()
	defer b3.Close()
	if hook(a3) != a3 {
		t.Fatal("connections beyond the sequence should pass through")
	}
}
