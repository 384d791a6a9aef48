package wirefmt

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/broker"
	"repro/internal/symtab"
	"repro/internal/xmldoc"
)

// sympathRuns numbers TestDecodeResolvesSymPath's runs in this process.
var sympathRuns atomic.Int64

// TestDecodeResolvesSymPath pins the symbol-native publication hop: every
// decoded path carries the symtab.Default symbols of its decoded names,
// whatever SymPath the sender held. Decoding never interns: a name the
// process never saw resolves to None, and to its symbol once something
// interns it; "*" resolves to the Wildcard sentinel.
func TestDecodeResolvesSymPath(t *testing.T) {
	// A counter, not an address: a later -count run's *testing.T can reuse
	// an earlier one's address, whose name is interned by then.
	fresh := fmt.Sprintf("sympath-test-%d", sympathRuns.Add(1))
	if _, ok := symtab.Lookup(fresh); ok {
		t.Fatalf("%q already interned", fresh)
	}
	symtab.InternPath([]string{"inventory", "book", "title"})
	sent := []*broker.Message{
		{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: []string{"inventory", "book", "title"}}},
		// A forged SymPath never crosses the wire.
		{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: []string{"inventory", fresh}, SymPath: []symtab.Sym{1 << 30, 1 << 30}}},
		{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: []string{"*", fresh, "inventory"}}},
		{Type: broker.MsgPublish, Raw: []byte("<a/>")},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	for _, m := range sent {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf, DefaultLimits)
	for i, m := range sent {
		got := new(broker.Message)
		if err := dec.Decode(got); err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Pub.Path, m.Pub.Path) {
			t.Fatalf("msg %d: path %q, sent %q", i, got.Pub.Path, m.Pub.Path)
		}
		if len(m.Pub.Path) == 0 {
			if got.Pub.SymPath != nil {
				t.Errorf("msg %d: pathless publication decoded SymPath %v", i, got.Pub.SymPath)
			}
			continue
		}
		if want := symtab.LookupPath(m.Pub.Path); !reflect.DeepEqual(got.Pub.SymPath, want) {
			t.Errorf("msg %d: SymPath %v, want %v (LookupPath of %q)", i, got.Pub.SymPath, want, m.Pub.Path)
		}
	}
	if _, ok := symtab.Lookup(fresh); ok {
		t.Errorf("decoding interned the path element %q", fresh)
	}
	if s, _ := symtab.Lookup("*"); s != symtab.Wildcard {
		t.Errorf("\"*\" resolved to %v, want Wildcard", s)
	}

	// Once interned, the name resolves on the link's next use of its id.
	want := symtab.Intern(fresh)
	if err := enc.Encode(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: []string{fresh}}}); err != nil {
		t.Fatal(err)
	}
	got := new(broker.Message)
	if err := dec.Decode(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pub.SymPath, []symtab.Sym{want}) {
		t.Errorf("after Intern: SymPath %v, want [%v]", got.Pub.SymPath, want)
	}
}

// TestAllNilAttrsShareOneWindow pins the attribute section of holes only:
// it decodes to a window of the shared noAttrs with the sent shape, a
// message decoded into again never writes that window, and a section with
// one map still gets a slice of its own.
func TestAllNilAttrsShareOneWindow(t *testing.T) {
	path := []string{"a", "b", "c"}
	holes := &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: path, Attrs: make([]map[string]string, 3)}}
	one := &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: path, Attrs: []map[string]string{nil, {"k": "v"}, nil}}}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	for _, m := range []*broker.Message{holes, one, holes, one} {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf, DefaultLimits)
	var got broker.Message // reused, as a steady-state caller does
	for i, want := range []*broker.Message{holes, one, holes, one} {
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if want, have := fingerprint(want), fingerprint(&got); want != have {
			t.Fatalf("msg %d mismatch:\nsent:\n%s\ngot:\n%s", i, want, have)
		}
		if sharesNoAttrs(got.Pub.Attrs) != (want == holes) {
			t.Fatalf("msg %d: shares noAttrs = %v", i, sharesNoAttrs(got.Pub.Attrs))
		}
	}
	for i, am := range noAttrs {
		if am != nil {
			t.Fatalf("noAttrs[%d] written: %v", i, am)
		}
	}
}

// TestDecodedPathsOwnTheirElements pins the block discipline: paths decoded
// into fresh messages are cut from shared decoder-owned blocks, yet every
// retained message keeps exactly the path it was sent, across many blocks
// and with paths longer than a block's share, and appending to one message's
// path never writes into another's.
func TestDecodedPathsOwnTheirElements(t *testing.T) {
	var sent []*broker.Message
	for i := 0; i < 400; i++ {
		n := 1 + i%12
		if i%97 == 0 {
			n = 100 // past a quarter block: its own allocation
		}
		path := make([]string, n)
		for j := range path {
			path[j] = fmt.Sprintf("e%d", (i+j)%40)
		}
		sent = append(sent, &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: uint64(i), Path: path}})
	}
	// The decoder only looks names up, so the symbols checked below must
	// exist before it runs.
	for j := 0; j < 40; j++ {
		symtab.Intern(fmt.Sprintf("e%d", j))
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	for _, m := range sent {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf, DefaultLimits)
	got := make([]*broker.Message, len(sent))
	for i := range sent {
		got[i] = new(broker.Message)
		if err := dec.Decode(got[i]); err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
	}
	// Scribble through every decoded slice's append path before checking
	// any of them.
	for _, m := range got {
		if cap(m.Pub.Path) != len(m.Pub.Path) || cap(m.Pub.SymPath) != len(m.Pub.SymPath) {
			t.Fatalf("doc %d: path cap %d/len %d, sympath cap %d/len %d — a carved slice must have no spare capacity",
				m.Pub.DocID, cap(m.Pub.Path), len(m.Pub.Path), cap(m.Pub.SymPath), len(m.Pub.SymPath))
		}
		_ = append(m.Pub.Path, "scribble")
		_ = append(m.Pub.SymPath, symtab.Wildcard)
	}
	for i, m := range got {
		if m.Pub.DocID != uint64(i) || !reflect.DeepEqual(m.Pub.Path, sent[i].Pub.Path) {
			t.Fatalf("msg %d: doc %d path %q, sent %q", i, m.Pub.DocID, m.Pub.Path, sent[i].Pub.Path)
		}
		if want := symtab.InternPath(sent[i].Pub.Path); !reflect.DeepEqual(m.Pub.SymPath, want) {
			t.Fatalf("msg %d: SymPath %v, want %v", i, m.Pub.SymPath, want)
		}
	}
}

// TestCarvedPathsReadConcurrently hands each decoded message to one of
// several reader goroutines, the way the transport hands publications to
// its worker pool, while the decoder goes on cutting later paths from the
// same blocks. Under -race this pins that a carved slice is never written
// after the decoder hands it over.
func TestCarvedPathsReadConcurrently(t *testing.T) {
	const msgs, readers = 2000, 4
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	for i := 0; i < msgs; i++ {
		path := []string{"a", "b", "c", "d", "e"}[:1+i%5]
		if err := enc.Encode(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: uint64(i), Path: path, Attrs: make([]map[string]string, len(path))}}); err != nil {
			t.Fatal(err)
		}
	}
	want := symtab.InternPath([]string{"a", "b", "c", "d", "e"})
	work := make(chan *broker.Message, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range work {
				n := 1 + int(m.Pub.DocID)%5
				if len(m.Pub.Path) != n || !reflect.DeepEqual(m.Pub.SymPath, want[:n]) || len(m.Pub.Attrs) != n {
					t.Errorf("doc %d: path %q syms %v attrs %d", m.Pub.DocID, m.Pub.Path, m.Pub.SymPath, len(m.Pub.Attrs))
				}
			}
		}()
	}
	dec := NewDecoder(&buf, DefaultLimits)
	for i := 0; i < msgs; i++ {
		m := new(broker.Message)
		if err := dec.Decode(m); err != nil {
			close(work)
			wg.Wait()
			t.Fatalf("msg %d: %v", i, err)
		}
		work <- m
	}
	close(work)
	wg.Wait()
}
