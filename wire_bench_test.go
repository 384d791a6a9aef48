package xmlrouter

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/transport"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// This file measures what the binary wire protocol (DESIGN.md §5h) buys on
// a real 3-broker TCP chain at saturation: messages per second end to end,
// bytes per message on the broker-broker links and frames per write; and,
// at the codec level against gob, allocations per encode/decode and bytes
// per message. TestEmitWireBench writes BENCH_wire.json.

// wireChain boots pub→b1→b2→b3→sub over loopback TCP with default options
// on every broker, returning the servers and their listen addresses.
func wireChain(t testing.TB) ([]*transport.Server, []string) {
	t.Helper()
	const n = 3
	addrs := make([]string, n)
	servers := make([]*transport.Server, n)
	neighbors := make([]map[string]string, n)
	for i := range servers {
		neighbors[i] = make(map[string]string)
	}
	for i := range servers {
		cfg := broker.Config{}
		cfg.ID = fmt.Sprintf("b%d", i+1)
		servers[i] = transport.NewServer(cfg, neighbors[i])
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(servers[i].Close)
	}
	for i := range servers {
		if i > 0 {
			neighbors[i][fmt.Sprintf("b%d", i)] = addrs[i-1]
			servers[i].Broker().AddNeighbor(fmt.Sprintf("b%d", i))
		}
		if i < n-1 {
			neighbors[i][fmt.Sprintf("b%d", i+2)] = addrs[i+1]
			servers[i].Broker().AddNeighbor(fmt.Sprintf("b%d", i+2))
		}
	}
	return servers, addrs
}

func wireWaitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// wireBenchMessage is the publication the chain is saturated with: a
// realistic path publication with attributes, heavy enough that the codec
// matters and small enough that thousands per second is the normal regime.
func wireBenchMessage(i int) *broker.Message {
	return &broker.Message{
		Type: broker.MsgPublish,
		Pub: xmldoc.Publication{
			DocID: uint64(i),
			Path:  []string{"stock", "exchange", "quote", "trade", "price"},
			Attrs: []map[string]string{
				nil,
				{"mic": "XNYS", "tz": "America/New_York"},
				{"symbol": "ACME", "currency": "USD"},
				{"size": "100", "venue": "XNYS"},
				nil,
			},
		},
	}
}

// chainThroughput saturates a chain with msgs publications and returns
// end-to-end messages/sec, mean bytes/message on the two broker-broker hops
// and their median frames per write. Several concurrent publishers keep the
// ingress broker's staged frames full so the broker-broker links — where
// the codec and batching live — are the measured path, not one client's
// synchronous write loop.
func chainThroughput(t testing.TB, msgs int) (msgsPerSec, bytesPerMsg, batchP50 float64) {
	t.Helper()
	const pubs = 4
	servers, addrs := wireChain(t)

	sub, err := transport.Dial(addrs[2], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/stock//price")}); err != nil {
		t.Fatal(err)
	}
	wireWaitFor(t, func() bool { return servers[0].PRTSize() == 1 })

	pub := make([]*transport.Client, pubs)
	for p := range pub {
		c, err := transport.Dial(addrs[0], fmt.Sprintf("pub%d", p))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pub[p] = c
		// Warm each publisher's path end to end (dial, dictionary, matcher).
		if err := c.Send(wireBenchMessage(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := sub.WaitDelivery(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	txBefore := chainTxBytes(servers)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if _, err := sub.WaitDelivery(10 * time.Second); err != nil {
				done <- fmt.Errorf("delivery %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()

	start := time.Now()
	pubErr := make(chan error, pubs)
	for p := 0; p < pubs; p++ {
		go func(p int) {
			for i := p; i < msgs; i += pubs {
				if err := pub[p].Send(wireBenchMessage(i + 1)); err != nil {
					pubErr <- err
					return
				}
			}
			pubErr <- nil
		}(p)
	}
	for p := 0; p < pubs; p++ {
		if err := <-pubErr; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	for _, ls := range servers[0].Links() {
		if ls.Up && ls.BatchP50 > batchP50 {
			batchP50 = ls.BatchP50
		}
	}
	msgsPerSec = float64(msgs) / elapsed.Seconds()
	// Each publication crosses two broker-broker links (b1→b2, b2→b3);
	// heartbeat and control noise over the run is negligible against
	// thousands of publications.
	bytesPerMsg = float64(chainTxBytes(servers)-txBefore) / (2 * float64(msgs))
	return msgsPerSec, bytesPerMsg, batchP50
}

// chainTxBytes sums outbound bytes over every live broker-broker link.
func chainTxBytes(servers []*transport.Server) int64 {
	var total int64
	for _, s := range servers {
		for _, ls := range s.Links() {
			total += ls.TxBytes
		}
	}
	return total
}

// codecAllocs measures steady-state allocations per encode and per decode,
// and bytes per message, for the benchmark publication under the binary
// codec or, with useGob set, under encoding/gob — the codec the links spoke
// before wirefmt, kept here as the baseline. Both keep their encoder and
// decoder for the whole connection, so the steady state is the second and
// later message on a warm stream.
func codecAllocs(t testing.TB, useGob bool, m *broker.Message) (encAllocs, decAllocs, bytesPerMsg float64) {
	t.Helper()
	const runs = 100
	if useGob {
		return gobCodecAllocs(t, m, runs)
	}
	enc := wirefmt.NewEncoder(io.Discard, wirefmt.DefaultLimits)
	if err := enc.Encode(m); err != nil { // warm the dictionary
		t.Fatal(err)
	}
	encAllocs = testing.AllocsPerRun(runs, func() {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	})

	var warm, frame bytes.Buffer
	senc := wirefmt.NewEncoder(io.MultiWriter(&warm, &frame), wirefmt.DefaultLimits)
	if err := senc.Encode(m); err != nil {
		t.Fatal(err)
	}
	frame.Reset()
	if err := senc.Encode(m); err != nil {
		t.Fatal(err)
	}
	dec := wirefmt.NewDecoder(&warm, wirefmt.DefaultLimits)
	var got broker.Message
	for i := 0; i < 2; i++ {
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
	}
	steady := frame.Bytes()
	r := bytes.NewReader(nil)
	decAllocs = testing.AllocsPerRun(runs, func() {
		r.Reset(steady)
		dec.Reset(r)
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
	})
	return encAllocs, decAllocs, float64(len(steady))
}

func gobCodecAllocs(t testing.TB, m *broker.Message, runs int) (encAllocs, decAllocs, bytesPerMsg float64) {
	genc := gob.NewEncoder(io.Discard)
	if err := genc.Encode(m); err != nil { // warm the type descriptors
		t.Fatal(err)
	}
	encAllocs = testing.AllocsPerRun(runs, func() {
		if err := genc.Encode(m); err != nil {
			t.Fatal(err)
		}
	})

	var stream bytes.Buffer
	senc := gob.NewEncoder(&stream)
	if err := senc.Encode(m); err != nil {
		t.Fatal(err)
	}
	first := stream.Len() // type descriptors plus the first value
	for i := 1; i < runs+10; i++ {
		if err := senc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	bytesPerMsg = float64(stream.Len()-first) / float64(runs+9)
	gdec := gob.NewDecoder(&stream)
	var got broker.Message
	if err := gdec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	decAllocs = testing.AllocsPerRun(runs, func() {
		got = broker.Message{}
		if err := gdec.Decode(&got); err != nil {
			t.Fatal(err)
		}
	})
	return encAllocs, decAllocs, bytesPerMsg
}

func TestEmitWireBench(t *testing.T) {
	out := os.Getenv("BENCH_WIRE_OUT")
	if out == "" {
		t.Skip("BENCH_WIRE_OUT not set")
	}
	const (
		msgs   = 20000
		rounds = 3 // best-of, to shed scheduler and GC noise
	)

	type config struct {
		Name       string  `json:"name"`
		MsgsPerSec float64 `json:"msgs_per_sec"`
		BytesPer   float64 `json:"bytes_per_msg"`
		BatchP50   float64 `json:"batch_p50"`
	}
	best := config{Name: "binary"}
	for r := 0; r < rounds; r++ {
		mps, bpm, b50 := chainThroughput(t, msgs)
		if mps > best.MsgsPerSec {
			best.MsgsPerSec, best.BytesPer, best.BatchP50 = mps, bpm, b50
		}
	}
	results := []config{best}
	t.Logf("%s: %.0f msgs/s, %.0f bytes/msg, batch p50 %.0f", best.Name, best.MsgsPerSec, best.BytesPer, best.BatchP50)

	gobEnc, gobDec, gobBytes := codecAllocs(t, true, wireBenchMessage(1))
	binEnc, binDec, binBytes := codecAllocs(t, false, wireBenchMessage(1))
	// A path-only publication (the routing hot path) must decode with ZERO
	// heap traffic; the attr-carrying variant is allowed exactly one string
	// copy per inline attribute value (6 in the benchmark message) — those
	// strings escape into the broker and cannot alias the reused frame
	// buffer. Attribute NAMES are dictionary symbols and stay free.
	pathOnly := wireBenchMessage(1)
	pathOnly.Pub.Attrs = nil
	binEncPath, binDecPath, _ := codecAllocs(t, false, pathOnly)
	if binEnc != 0 || binEncPath != 0 || binDecPath != 0 {
		t.Errorf("binary codec allocates at steady state: encode %.1f/%.1f, path-only decode %.1f allocs/op (want 0)",
			binEnc, binEncPath, binDecPath)
	}
	if binDec > 6 {
		t.Errorf("attr-carrying decode = %.1f allocs/op, want at most the 6 value-string copies", binDec)
	}
	// Deterministic, unlike throughput: the benchmark publication's warm
	// binary frame must stay well under gob's steady-state encoding.
	if binBytes > 0.6*gobBytes {
		t.Errorf("binary %.0f bytes/msg, want at most 0.6x gob's %.0f", binBytes, gobBytes)
	}

	doc := struct {
		Benchmark string   `json:"benchmark"`
		Host      string   `json:"host"`
		CPUs      int      `json:"cpus"`
		Go        string   `json:"go"`
		Messages  int      `json:"messages"`
		Configs   []config `json:"configs"`
		Allocs    struct {
			GobEncode           float64 `json:"gob_encode"`
			GobDecode           float64 `json:"gob_decode"`
			BinaryEncode        float64 `json:"binary_encode"`
			BinaryDecode        float64 `json:"binary_decode"`
			BinaryDecodePathMsg float64 `json:"binary_decode_path_only"`
		} `json:"allocs_per_op"`
		Bytes struct {
			Gob    float64 `json:"gob"`
			Binary float64 `json:"binary"`
		} `json:"codec_bytes_per_msg"`
	}{
		Benchmark: "3-broker chain saturation over the binary wire; codec allocs and bytes vs gob (DESIGN.md §5h)",
		Host:      runtime.GOOS + "/" + runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Go:        runtime.Version(),
		Messages:  msgs,
		Configs:   results,
	}
	doc.Allocs.GobEncode = gobEnc
	doc.Allocs.GobDecode = gobDec
	doc.Allocs.BinaryEncode = binEnc
	doc.Allocs.BinaryDecode = binDec
	doc.Allocs.BinaryDecodePathMsg = binDecPath
	doc.Bytes.Gob = gobBytes
	doc.Bytes.Binary = binBytes

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (binary %.0f vs gob %.0f bytes/msg)", out, binBytes, gobBytes)
}
