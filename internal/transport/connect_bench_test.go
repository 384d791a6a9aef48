package transport_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/broker"
	"repro/internal/transport"
	"repro/internal/xpath"
)

// BenchmarkConnectSubscribe measures how long a new client takes to become
// useful over loopback: dial the broker, send one subscription, and wait
// until the broker has applied it. The connection handshake is on this
// path, so the benchmark prices it. It uses only the package's public API.
// Each iteration leaves one more entry in the subscription table.
func BenchmarkConnectSubscribe(b *testing.B) {
	cfg := broker.Config{}
	cfg.ID = "b1"
	s := transport.NewServer(cfg, nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := transport.Dial(addr, fmt.Sprintf("c%d", i))
		if err != nil {
			b.Fatal(err)
		}
		sub := &broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(fmt.Sprintf("/e%d", i))}
		if err := c.Send(sub); err != nil {
			b.Fatal(err)
		}
		for s.PRTSize() != i+1 {
			runtime.Gosched()
		}
		c.Close()
	}
}
