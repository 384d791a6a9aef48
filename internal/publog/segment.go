package publog

// Segment file format. Each segment is:
//
//	"XPLG2" || uvarint(createdUnixNano) || record*
//
// and each record is the envelope:
//
//	uvarint(bodyLen) || crc32-IEEE(body, 4B little-endian) || body
//
// with body:
//
//	uvarint(len(name)) || name || uvarint(seq) || wirefmt frames
//
// The wirefmt frames are exactly what internal/wirefmt writes for one
// message on a fresh link: zero or more dictionary-extension frames
// followed by one message frame. The symbol dictionary is PER SEGMENT —
// one persistent encoder writes the whole segment, so repeated element
// names cost one varint after first use, and recovery never needs state
// from another file. So is the stamp base: each record's Stamp is written
// as the delta from the previous record's in the same segment, so a record
// decodes only after every record before it in its file. That is also why
// reopening a log always rolls a new segment: a half-written dictionary
// and stamp base cannot be resumed.
//
// Version 1 ("XPLG1") wrote absolute stamps; its segments fail the header
// check, so recovery drops them whole rather than misread them.
//
// Recovery walks the envelopes: the first record whose length or CRC does
// not check out marks the torn tail, and truncating there lands exactly on
// a record boundary. The CRC covers the body, so a bit flip anywhere in a
// record is a tear, not a decode of garbage.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/wirefmt"
)

const (
	segMagic = "XPLG2"
	// maxRecordBytes bounds one record's body: a maximal wirefmt frame
	// (16 MiB) plus the name/seq preamble. A larger declared length is
	// corruption, not a big record.
	maxRecordBytes = wirefmt.MaxFrame + 1<<10
	// maxNameLen bounds a durable subscription name inside a record,
	// matching the wire's symbol bound.
	maxNameLen = wirefmt.MaxName
)

// segmentInfo describes one segment for retention and replay planning.
type segmentInfo struct {
	index   uint64
	path    string
	size    int64
	created int64 // unix nanos from the segment header (0 if unreadable)
	// names maps each durable name to its highest sequence in this
	// segment — retention deletes a segment once every name's cursor has
	// passed its max, and replay skips segments that cannot hold the range.
	names map[string]uint64
}

// segWriter appends records to the active segment through a buffered
// writer, encoding each message with the segment's persistent wirefmt
// encoder (one symbol dictionary per segment).
type segWriter struct {
	segmentInfo
	f       *os.File
	bw      *bufio.Writer
	enc     *wirefmt.Encoder
	scratch []byte
}

func segName(index uint64) string {
	return fmt.Sprintf("seg-%08d.log", index)
}

func newSegWriter(dir string, index uint64) (*segWriter, error) {
	path := filepath.Join(dir, segName(index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &segWriter{
		segmentInfo: segmentInfo{
			index:   index,
			path:    path,
			created: time.Now().UnixNano(),
			names:   make(map[string]uint64),
		},
		f:  f,
		bw: bufio.NewWriterSize(f, 64<<10),
	}
	w.enc = wirefmt.NewEncoder(nil, wirefmt.DefaultLimits)
	hdr := append([]byte(segMagic), binary.AppendUvarint(nil, uint64(w.created))...)
	if _, err := w.bw.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	w.size = int64(len(hdr))
	return w, nil
}

// append encodes one record and writes its envelope into the buffered
// writer, returning the record's on-disk size.
func (w *segWriter) append(name string, seq uint64, m *broker.Message) (int, error) {
	if name == "" || len(name) > maxNameLen {
		return 0, fmt.Errorf("publog: bad durable name (%d bytes)", len(name))
	}
	b := w.scratch[:0]
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, seq)
	b, err := w.enc.Append(b, m)
	w.scratch = b // keep the grown capacity
	if err != nil {
		return 0, fmt.Errorf("publog: encode record: %w", err)
	}
	var env [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(env[:], uint64(len(b)))
	binary.LittleEndian.PutUint32(env[n:], crc32.ChecksumIEEE(b))
	n += 4
	if _, err := w.bw.Write(env[:n]); err != nil {
		return 0, err
	}
	if _, err := w.bw.Write(b); err != nil {
		return 0, err
	}
	return n + len(b), nil
}

// segHeaderLen returns the length of data's segment header, or 0 when the
// header itself is invalid.
func segHeaderLen(data []byte) int {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0
	}
	_, n := binary.Uvarint(data[len(segMagic):])
	if n <= 0 {
		return 0
	}
	return len(segMagic) + n
}

// segmentCreated reads the header's creation stamp (0 when unreadable).
func segmentCreated(data []byte) int64 {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0
	}
	v, n := binary.Uvarint(data[len(segMagic):])
	if n <= 0 {
		return 0
	}
	return int64(v)
}

// scanSegment walks data's records, calling fn for each whole one, and
// returns the offset of the torn tail: the byte offset at which the first
// invalid record starts. A fully valid segment returns len(data), so
// truncating at the returned offset is always correct and idempotent —
// rescanning data[:offset] finds no tear. fn returning an error stops the
// scan and marks the current record as the tear (its successors depend on
// the segment dictionary state fn's caller could not advance).
func scanSegment(data []byte, fn func(name string, seq uint64, frames []byte) error) int64 {
	hdr := segHeaderLen(data)
	if hdr == 0 {
		return 0
	}
	off := hdr
	for off < len(data) {
		recStart := off
		bodyLen, n := binary.Uvarint(data[off:])
		if n <= 0 || bodyLen == 0 || bodyLen > maxRecordBytes {
			return int64(recStart)
		}
		off += n
		if len(data)-off < 4+int(bodyLen) {
			return int64(recStart)
		}
		crc := binary.LittleEndian.Uint32(data[off:])
		off += 4
		body := data[off : off+int(bodyLen)]
		off += int(bodyLen)
		if crc32.ChecksumIEEE(body) != crc {
			return int64(recStart)
		}
		name, seq, frames, ok := splitBody(body)
		if !ok {
			return int64(recStart)
		}
		if fn != nil {
			if err := fn(name, seq, frames); err != nil {
				return int64(recStart)
			}
		}
	}
	return int64(len(data))
}

// splitBody parses a record body into its name, sequence, and wirefmt
// frame bytes.
func splitBody(body []byte) (name string, seq uint64, frames []byte, ok bool) {
	nl, n := binary.Uvarint(body)
	if n <= 0 || nl == 0 || nl > maxNameLen || int(nl) > len(body)-n {
		return "", 0, nil, false
	}
	name = string(body[n : n+int(nl)])
	rest := body[n+int(nl):]
	seq, n = binary.Uvarint(rest)
	if n <= 0 {
		return "", 0, nil, false
	}
	return name, seq, rest[n:], true
}

// byteFeeder is the io.Reader a recordDecoder drains record frame areas
// through: replay points it at each record's frames in turn, so one
// decoder (one dictionary) serves the whole segment.
type byteFeeder struct {
	data []byte
}

func (f *byteFeeder) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// recordDecoder decodes the wirefmt frame areas of one segment's records
// in order, maintaining the per-segment symbol dictionary.
type recordDecoder struct {
	feeder byteFeeder
	br     *bufio.Reader
	dec    *wirefmt.Decoder
}

func newRecordDecoder() *recordDecoder {
	rd := &recordDecoder{}
	rd.br = bufio.NewReader(&rd.feeder)
	rd.dec = wirefmt.NewDecoder(rd.br, wirefmt.DefaultLimits)
	return rd
}

// decode parses one record's frames into a fresh message. The frames must
// contain exactly one message (plus any dictionary extensions); trailing
// bytes are corruption.
func (rd *recordDecoder) decode(frames []byte) (*broker.Message, error) {
	rd.feeder.data = frames
	m := &broker.Message{}
	if err := rd.dec.Decode(m); err != nil {
		return nil, err
	}
	if len(rd.feeder.data) != 0 || rd.br.Buffered() != 0 {
		return nil, fmt.Errorf("publog: %d trailing bytes in record", len(rd.feeder.data)+rd.br.Buffered())
	}
	return m, nil
}

// indexedName pairs a segment file name with its parsed index for sorting.
type indexedName struct {
	name  string
	index uint64
}

// listSegments returns the directory's segment files in index order.
func listSegments(dir string) ([]indexedName, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []indexedName
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, indexedName{name: name, index: idx})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out, nil
}
