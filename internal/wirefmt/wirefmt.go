// Package wirefmt is the binary wire codec of every broker and client link
// (DESIGN.md §5h): varint-framed records over per-link interned symbol ids.
// Each frame is written with append-only varint arithmetic onto a caller's
// buffer and read back with bounds-validated slicing. Steady-state publish
// encode allocates nothing. Decode allocates nothing only into a reused
// message whose path, attribute, hop and raw-body capacities fit, which is
// how a broker hop decodes publications: each read loop into the one
// message it owns. A fresh message — every
// delivery a client decodes, every control frame — costs the message plus
// one exactly sized allocation per variable-length field present beside
// the path (attribute maps, raw body, trace id, hops and each hop's
// stages), never append's growth steps. A fresh message's path names and
// symbols are cut from decoder-owned blocks, a few dozen paths per
// allocation, and an attribute section of holes only shares one
// never-written array of nil maps.
//
// Publication records. A publication's Stamp is written as the zigzag
// delta from the previous publication's Stamp on the same stream: Encoder
// and Decoder each hold that base beside the dictionary, it starts at 0 on
// a new stream, only publish frames move it, and Encoder.Append restores it
// when it rolls a message back. The arithmetic wraps, so every int64
// sequence round-trips. DocID stays absolute. The attribute section is
// sparse: its length na, the count k of non-empty maps, then k pairs of
// (holes skipped since the previous map, map), so a section of holes only
// costs 2 bytes. An empty map travels as a hole.
//
// Symbol-native paths. The decoder resolves every path element to its
// symtab.Default symbol through a per-link id→symbol slice, interning each
// dictionary name once, and fills Pub.SymPath, so brokers never intern a
// forwarded path again. The sender's SymPath never crosses the wire.
//
// Preamble. A connection opens with one preamble from the dialler — the
// magic "XRW", the version byte 2, and the dialler's id as a uvarint-
// length-prefixed string (at most MaxName bytes) — and the acceptor sends
// nothing back (Encoder.Hello, Decoder.Hello). A version-1 peer, which
// wrote absolute stamps and one byte per attribute hole, is refused there.
//
// Framing. The byte stream after the preamble is a sequence of frames, each
// a uvarint byte length followed by that many payload bytes.
// The first payload byte is the frame kind: dictionary extension or message.
// A batch is simply several frames written in one write; the encoder writes
// the same bytes however frames fall into writes, and the decoder never
// needs to know where batches began.
//
// Symbol dictionary. Low-cardinality strings — element names, XPath step
// names, advertisement ids, broker ids, stage names — are sent once per
// link: the encoder assigns the next sequential id on first use and
// declares it in a dictionary-extension frame right before the message
// frame that first references it. The dictionary starts
// empty on both sides of a new connection and only ever grows, so ids are
// stable for the life of the connection. High-cardinality values —
// attribute values, trace ids, predicate strings, raw document bytes —
// travel inline as length-prefixed bytes.
//
// Hostile input. The decoder is the transport's only validation surface. It
// checks every declared length against both the configured Limits and the
// bytes actually remaining in the frame before allocating, so a hostile
// peer cannot make the receiver allocate more than it sends, and it checks
// every decoded subscription against the parser's invariants
// (xpath.XPE.Validate). A frame that violates any bound is an error; the
// transport closes the connection.
package wirefmt

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/xpath"
)

// Frame kinds (first payload byte of every frame).
const (
	frameDict byte = 0x01 // dictionary extension: firstID, count, count strings
	frameMsg  byte = 0x02 // one broker message
)

// Preamble constants: the magic that opens every connection and the
// protocol version that follows it.
const (
	helloMagic   = "XRW"
	helloVersion = 2
)

// Wire bounds. They are far above anything the system generates — they
// exist to cap hostile input, not to constrain use. A raw body's depth,
// element count and name length are checked by the streaming scan
// (stream.WireLimits) when a broker routes it; its depth bound equals
// MaxPath, so a document's deepest path publication is accepted alike
// (TestDeepestDocumentAgreesAcrossForms).
const (
	MaxSteps     = xpath.MaxSteps // location steps per subscription
	MaxName      = 256            // bytes per element name, attribute, or ID
	MaxPath      = 256            // elements per publication path
	MaxAdvItems  = 256            // advertisement items, groups included
	MaxAdvDepth  = 8              // advertisement group nesting
	MaxResync    = 1 << 16        // entries per resync list
	MaxHops      = 1024           // carried trace hops
	MaxRawDoc    = 1 << 20        // bytes per raw-XML publication body
	MaxHopStages = 16             // per-stage durations per carried hop
	MaxStageName = 32             // bytes per stage name

	// MaxStageNanos caps a carried stage duration at one hour: durations
	// are measured monotonic timings, so a larger (or negative) value can
	// only be a forged frame.
	MaxStageNanos = int64(3600) * 1e9

	// MaxDict bounds the per-link symbol dictionary. Element alphabets are
	// small; the largest legitimate consumer is advertisement ids, one per
	// advert (a resync claim spans a whole SRT, ~64k entries). A peer that
	// declares more symbols than this is flooding, and loses the link.
	MaxDict = 1 << 20

	// MaxFrame bounds one frame's declared payload length; raw documents
	// cap at MaxRawDoc. The frame buffer grows only as bytes actually
	// arrive, so a hostile declared length costs the sender real traffic,
	// not the receiver memory.
	MaxFrame = 16 << 20
)

// Limits parameterises the decoder's bounds so tests and embedders can
// tighten them; DefaultLimits mirrors the package constants.
type Limits struct {
	MaxSteps     int
	MaxName      int
	MaxPath      int
	MaxAdvItems  int
	MaxAdvDepth  int
	MaxResync    int
	MaxHops      int
	MaxRawDoc    int
	MaxHopStages int
	MaxStageName int

	MaxStageNanos int64
	MaxDict       int
	MaxFrame      int
}

// DefaultLimits is the wire-bound set used on broker and client links.
var DefaultLimits = Limits{
	MaxSteps:      MaxSteps,
	MaxName:       MaxName,
	MaxPath:       MaxPath,
	MaxAdvItems:   MaxAdvItems,
	MaxAdvDepth:   MaxAdvDepth,
	MaxResync:     MaxResync,
	MaxHops:       MaxHops,
	MaxRawDoc:     MaxRawDoc,
	MaxHopStages:  MaxHopStages,
	MaxStageName:  MaxStageName,
	MaxStageNanos: MaxStageNanos,
	MaxDict:       MaxDict,
	MaxFrame:      MaxFrame,
}

// publish-frame flag bits. Bit 0 once marked a parsed document tree; it is
// retired, and the decoder rejects it with every other unknown bit.
const (
	pubFlagRaw     byte = 1 << 1 // carries a raw-XML body
	pubFlagTrace   byte = 1 << 2 // carries TraceID and hop list
	pubFlagAttrs   byte = 1 << 3 // carries per-element attribute maps
	pubFlagDurable byte = 1 << 4 // carries a durable name and sequence

	pubFlagsKnown = pubFlagRaw | pubFlagTrace | pubFlagAttrs | pubFlagDurable
)

// xpe-record flag bits; the decoder rejects any other.
const xpeFlagRelative byte = 1 << 0

// zigzag maps a signed value onto the uvarint space (small magnitudes stay
// small in either sign).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends v to b in LEB128 form.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// uvarintLen returns the number of bytes appendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// errTruncated is the generic inside-a-frame underrun error.
var errTruncated = fmt.Errorf("wirefmt: truncated frame")
