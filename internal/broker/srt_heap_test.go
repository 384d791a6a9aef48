package broker_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/dtddata"
	"repro/internal/wirefmt"
)

// srtBytesPerAdvCeiling bounds the live heap a broker keeps per stored
// advertisement, about 40% of what it kept when each advertisement was a
// tree of name items with a second flat copy of its names (740 B per NITF
// advertisement). As one token string it measures about 230 B: the token
// slice and the Advertisement, the SRT entry, its map slot and the index
// postings.
const srtBytesPerAdvCeiling = 300

// TestSRTHeapPerAdvertisement pins what the SRT costs to hold: NITF's
// advertisements, encoded on a link and decoded as the neighbour's read
// loop decodes them, are fed to a broker, and the live heap the broker
// retains per advertisement, read after two collections, stays under
// srtBytesPerAdvCeiling. The encoded frames predate the first reading and
// the decoder is gone by the second, so the difference counts the broker's
// tables alone.
func TestSRTHeapPerAdvertisement(t *testing.T) {
	if testing.Short() {
		t.Skip("heap accounting wants the whole advertisement set")
	}
	advs, err := advert.Generate(dtddata.NITF())
	if err != nil {
		t.Fatal(err)
	}
	var frames bytes.Buffer
	enc := wirefmt.NewEncoder(&frames, wirefmt.DefaultLimits)
	for i, a := range advs {
		if err := enc.Encode(&broker.Message{Type: broker.MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: a}); err != nil {
			t.Fatal(err)
		}
	}
	n := len(advs)
	advs = nil

	before := liveHeap()
	b := broker.New(broker.Config{ID: "b2", UseAdvertisements: true, UseCovering: true}, func(string, *broker.Message) {})
	b.AddNeighbor("b1")
	func() {
		dec := wirefmt.NewDecoder(bytes.NewReader(frames.Bytes()), wirefmt.DefaultLimits)
		for {
			var m broker.Message
			if err := dec.Decode(&m); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			b.HandleMessage(&m, "b1")
		}
	}()
	after := liveHeap()
	if got := b.SRTSize(); got != n {
		t.Fatalf("SRT holds %d advertisements, want %d", got, n)
	}
	perAdv := float64(int64(after)-int64(before)) / float64(n)
	t.Logf("%d advertisements: %.0f B of live heap each", n, perAdv)
	if perAdv > srtBytesPerAdvCeiling {
		t.Errorf("the SRT keeps %.0f B per advertisement, want at most %d", perAdv, srtBytesPerAdvCeiling)
	}
	runtime.KeepAlive(b)
	runtime.KeepAlive(frames)
}

// liveHeap returns the heap in use after two collections: objects pooled
// in a sync.Pool survive the first one.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
