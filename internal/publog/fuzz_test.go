package publog

// FuzzPublogDecode drives the segment scanner over arbitrary bytes. The
// scanner is the recovery path — it runs on whatever a crash left on disk —
// so the contract under fuzzing is absolute: never panic, never read past
// the input, never hand a caller a record the CRC did not bless, and always
// land the torn-tail offset on a valid boundary so truncation converges.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedSegments builds real segment byte strings with the production
// encoder: a multi-record multi-name segment, an empty (header-only) one,
// and a two-segment log's files.
func fuzzSeedSegments(tb testing.TB) [][]byte {
	tb.Helper()
	dir, err := os.MkdirTemp("", "publog-fuzz-seed")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := syncOpts
	opts.SegmentBytes = 400
	s, err := Open(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(1); i <= 16; i++ {
		name := "alpha"
		if i%3 == 0 {
			name = "beta"
		}
		if err := s.Append(name, i, pubMsg(i, "catalog", "book", "title")); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, sn := range segs {
		data, err := os.ReadFile(filepath.Join(dir, sn.name))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func FuzzPublogDecode(f *testing.F) {
	for _, seg := range fuzzSeedSegments(f) {
		f.Add(seg)
		// Corruptions of real segments steer the fuzzer at the interesting
		// boundaries: torn tail, flipped length varint, flipped CRC byte.
		if len(seg) > 8 {
			f.Add(seg[:len(seg)-3])
			flip := append([]byte(nil), seg...)
			flip[6] ^= 0xff
			f.Add(flip)
			crc := append([]byte(nil), seg...)
			crc[len(crc)-1] ^= 0x01
			f.Add(crc)
		}
	}
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	f.Add(append([]byte(segMagic), "\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var total int
		end := scanSegment(data, func(name string, seq uint64, frames []byte) error {
			// A record the scanner accepts is bounded by construction; an
			// oversize one means the length guard failed and a hostile
			// input could drive allocation arbitrarily high.
			if len(name) > maxNameLen {
				t.Fatalf("accepted record with %d-byte name", len(name))
			}
			if len(frames) > maxRecordBytes {
				t.Fatalf("accepted record with %d-byte frame block", len(frames))
			}
			total += len(frames)
			return nil
		})
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("scan end %d outside input of %d bytes", end, len(data))
		}
		// A version-1 segment (absolute stamps) is refused whole: the
		// checked-in seed-* corpus files are such segments.
		if bytes.HasPrefix(data, []byte(segMagicV1)) && end != 0 {
			t.Fatalf("version-1 segment scanned to %d, want 0", end)
		}
		if total > len(data) {
			t.Fatalf("scanner handed out %d frame bytes from a %d-byte input", total, len(data))
		}
		// Boundary validity: truncating to the reported end and rescanning
		// must consume the whole prefix cleanly — recovery truncation is
		// idempotent only if the scanner's tear offset is a record boundary.
		if end2 := scanSegment(data[:end], func(string, uint64, []byte) error { return nil }); end2 != end {
			t.Fatalf("rescan of clean prefix tore again: %d then %d", end, end2)
		}
	})
}

// segMagicV1 opens a version-1 segment.
const segMagicV1 = "XPLG1"

// TestGenerateFuzzCorpus materialises the seed inputs as files in the
// checked-in corpus directory, named v2-*; the seed-* files there are
// version-1 segments, kept as inputs the scanner must refuse. Run manually
// after a format change:
//
//	PUBLOG_GEN_CORPUS=1 go test ./internal/publog -run TestGenerateFuzzCorpus
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("PUBLOG_GEN_CORPUS") == "" {
		t.Skip("set PUBLOG_GEN_CORPUS=1 to regenerate the checked-in corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzPublogDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(label string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, label), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs := fuzzSeedSegments(t)
	for i, seg := range segs {
		write(fmt.Sprintf("v2-segment-%d", i), seg)
		if len(seg) > 8 {
			write(fmt.Sprintf("v2-torn-%d", i), seg[:len(seg)-3])
			crc := append([]byte(nil), seg...)
			crc[len(crc)-1] ^= 0x01
			write(fmt.Sprintf("v2-badcrc-%d", i), crc)
		}
	}
	write("v2-header-only", []byte(segMagic))
	write("v2-huge-created", append([]byte(segMagic), "\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"...))
}
