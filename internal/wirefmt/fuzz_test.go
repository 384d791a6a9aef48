package wirefmt

import (
	"bytes"
	"encoding/binary"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/broker"
	"repro/internal/xmldoc"
)

// FuzzDecode throws arbitrary bytes at the decoder. The contract under
// hostile input is: an error (or a clean decode, if the mutation happens to
// stay valid), never a panic, and never an allocation larger than the input
// actually pays for — the tight Limits make the fuzzer's over-declared
// lengths cheap to detect.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages(f) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, DefaultLimits)
		if err := enc.Encode(m); err != nil {
			f.Fatalf("seed Encode: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(appendUvarint(nil, uint64(MaxFrame)))

	lim := DefaultLimits
	lim.MaxFrame = 1 << 16 // keep per-exec work bounded
	lim.MaxRawDoc = 1 << 15
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data), lim)
		var m broker.Message
		for dec.Decode(&m) == nil {
			m = broker.Message{}
		}
	})
}

// fuzzStream builds a publication sequence from fuzz input, one control
// byte per message plus the bytes it asks for. The control byte picks the
// stamp (MinInt64, MaxInt64, a repeat, a decrease, a rise, any 8 bytes),
// whether the path carries an attribute section, whether the message is
// followed by a flush, and where the one over-limit message goes; the next
// bytes give the path (0 to 5 elements) and each element's attributes: a
// hole, an empty map or a map of one or two pairs.
// flush[i] reports whether message i is followed by a flush; overAt is the
// index of the message the over-limit one precedes, or -1.
func fuzzStream(data []byte) (msgs []*broker.Message, flush []bool, overAt int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	overAt = -1
	var stamp int64
	for len(data) > 0 && len(msgs) < 64 {
		c := next()
		switch c & 7 {
		case 0:
			stamp = math.MinInt64
		case 1:
			stamp = math.MaxInt64
		case 2: // a repeat
		case 3:
			stamp -= int64(next())
		case 4:
			stamp += int64(next()) << 20
		case 5:
			var b [8]byte
			for i := range b {
				b[i] = next()
			}
			stamp = int64(binary.LittleEndian.Uint64(b[:]))
		case 6:
			stamp = 0
		case 7:
			stamp = -int64(next())
		}
		m := &broker.Message{Type: broker.MsgPublish, Stamp: stamp, Pub: xmldoc.Publication{DocID: uint64(next())}}
		n := int(next() % 6)
		for i := 0; i < n; i++ {
			m.Pub.Path = append(m.Pub.Path, []string{"a", "b", "c", "d"}[next()%4])
		}
		if c&8 != 0 {
			m.Pub.Attrs = make([]map[string]string, n)
			for i := range m.Pub.Attrs {
				switch b := next(); {
				case b&1 != 0:
					m.Pub.Attrs[i] = map[string]string{"k": string(rune('a' + b%26))}
					if b&2 != 0 {
						m.Pub.Attrs[i]["id"] = strings.Repeat("v", int(b>>2))
					}
				case b&2 != 0:
					m.Pub.Attrs[i] = map[string]string{} // travels as a hole
				}
			}
		}
		if c&0x40 != 0 && overAt < 0 {
			overAt = len(msgs)
		}
		msgs = append(msgs, m)
		flush = append(flush, c&0x80 != 0)
	}
	return msgs, flush, overAt
}

// FuzzStreamRoundTrip encodes a fuzz-built publication sequence on one
// Encoder and decodes it on one Decoder, as a link does. Each stamp is
// written as the delta from the previous publication on the stream, so the
// sequence covers the extremes, repeats and decreases; attribute sections
// are sparse, so maps sit at any position among holes. One over-limit
// message is queued mid-stream: Queue must refuse it and leave the stream,
// stamp base included, as it was. Every decoded message must equal the one
// sent in path, attribute shape and stamp.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 2, 3})                                     // MinInt64 with a path
	f.Add([]byte{1, 1, 0, 0, 1, 0, 3, 9, 2, 0})                         // MaxInt64, then a decrease past it, then MinInt64
	f.Add([]byte{2, 0, 0, 2, 1, 0, 2, 2, 1})                            // repeated stamps, empty paths
	f.Add([]byte{4, 200, 7, 5, 0, 1, 2, 3, 4, 3, 1, 2, 3})              // a rise and a decrease
	f.Add([]byte{8, 1, 5, 0, 1, 2, 3, 1, 0, 0, 7, 0xff})                // maps at the first and last positions
	f.Add([]byte{8, 1, 3, 0, 1, 2, 0, 0, 0, 14, 9, 2, 0, 9, 3})         // an all-holes section, then a map among holes
	f.Add([]byte{8, 1, 0, 0x48, 2, 2, 0, 1, 3, 0x80 | 5, 1, 2, 3, 4})   // over-limit message mid-stream, a flush
	f.Add([]byte{0x45, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 0, 0x81, 2, 0})    // over-limit first, then MaxInt64
	f.Add([]byte{0x87, 5, 3, 2, 1, 1, 0x80, 4, 1, 0x80, 0x43, 4, 1, 2}) // flushes between stamp changes
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, flush, overAt := fuzzStream(data)
		over := &broker.Message{Type: broker.MsgPublish, Stamp: 12345, Pub: xmldoc.Publication{Path: make([]string, MaxPath+1)}}
		for i := range over.Pub.Path {
			over.Pub.Path[i] = "x"
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf, DefaultLimits)
		for i, m := range msgs {
			if i == overAt {
				if err := enc.Queue(over); err == nil {
					t.Fatal("Queue accepted an over-limit path")
				}
			}
			if err := enc.Queue(m); err != nil {
				t.Fatalf("msg %d: Queue: %v", i, err)
			}
			if flush[i] {
				if _, err := enc.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(&buf, DefaultLimits)
		for i, want := range msgs {
			var got broker.Message
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("msg %d: Decode: %v", i, err)
			}
			if got.Stamp != want.Stamp || got.Pub.DocID != want.Pub.DocID {
				t.Fatalf("msg %d: stamp %d docID %d, sent %d and %d", i, got.Stamp, got.Pub.DocID, want.Stamp, want.Pub.DocID)
			}
			if !slices.Equal(got.Pub.Path, want.Pub.Path) {
				t.Fatalf("msg %d: path %q, sent %q", i, got.Pub.Path, want.Pub.Path)
			}
			if len(got.Pub.Attrs) != len(want.Pub.Attrs) {
				t.Fatalf("msg %d: %d attribute maps, sent %d", i, len(got.Pub.Attrs), len(want.Pub.Attrs))
			}
			for j, am := range want.Pub.Attrs {
				if !maps.Equal(got.Pub.Attrs[j], am) || (got.Pub.Attrs[j] == nil) != (len(am) == 0) {
					t.Fatalf("msg %d: attributes %v at element %d, sent %v", i, got.Pub.Attrs[j], j, am)
				}
			}
		}
		if err := dec.Decode(new(broker.Message)); err != io.EOF {
			t.Fatalf("stream did not end after %d messages: %v", len(msgs), err)
		}
	})
}
