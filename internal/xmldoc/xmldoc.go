// Package xmldoc provides the XML document model of the routing system: a
// lightweight element tree, parsing and serialisation, and the decomposition
// of a document into its root-to-leaf paths — the publication units the
// routers actually forward (annotated with document and path identifiers, as
// in the paper this is transparent to publishers and subscribers, who handle
// entire documents).
package xmldoc

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/symtab"
)

// Elem is a node of the element tree.
type Elem struct {
	Name     string
	Attrs    []Attr
	Text     string // concatenated character data directly under this element
	Children []*Elem
}

// Attr is a name/value attribute pair.
type Attr struct {
	Name  string
	Value string
}

// Document is a parsed or generated XML document.
type Document struct {
	Root *Elem
}

// NewElem constructs an element with the given name and children.
func NewElem(name string, children ...*Elem) *Elem {
	return &Elem{Name: name, Children: children}
}

// Parse reads an XML document from data. It keeps element structure,
// attributes and character data, and ignores comments and processing
// instructions.
func Parse(data []byte) (*Document, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var stack []*Elem
	var root *Elem
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := &Elem{Name: t.Name.Local}
			for _, a := range t.Attr {
				el.Attrs = append(el.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmldoc: parse: multiple root elements")
				}
				root = el
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldoc: parse: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				text := strings.TrimSpace(string(t))
				if text != "" {
					stack[len(stack)-1].Text += text
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmldoc: parse: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmldoc: parse: unclosed elements")
	}
	return &Document{Root: root}, nil
}

// WriteTo serialises the document as XML.
func (d *Document) WriteTo(w io.Writer) (int64, error) {
	cw := &byteCounter{w: w}
	err := writeElem(cw, d.Root)
	return cw.n, err
}

// Marshal serialises the document to a byte slice.
func (d *Document) Marshal() []byte {
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		// bytes.Buffer never fails; this guards future writer changes.
		panic(err)
	}
	return buf.Bytes()
}

// Size returns the serialised size in bytes.
func (d *Document) Size() int {
	cw := &byteCounter{w: io.Discard}
	if err := writeElem(cw, d.Root); err != nil {
		panic(err)
	}
	return int(cw.n)
}

type byteCounter struct {
	w io.Writer
	n int64
}

func (c *byteCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeElem(w io.Writer, e *Elem) error {
	if _, err := io.WriteString(w, "<"+e.Name); err != nil {
		return err
	}
	for _, a := range e.Attrs {
		if _, err := io.WriteString(w, " "+a.Name+`="`+escapeAttr(a.Value)+`"`); err != nil {
			return err
		}
	}
	if len(e.Children) == 0 && e.Text == "" {
		_, err := io.WriteString(w, "/>")
		return err
	}
	if _, err := io.WriteString(w, ">"); err != nil {
		return err
	}
	if e.Text != "" {
		if _, err := io.WriteString(w, escapeText(e.Text)); err != nil {
			return err
		}
	}
	for _, c := range e.Children {
		if err := writeElem(w, c); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</"+e.Name+">")
	return err
}

var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

func escapeAttr(s string) string { return attrEscaper.Replace(s) }
func escapeText(s string) string { return textEscaper.Replace(s) }

// Paths returns the document's root-to-leaf element-name paths in document
// order. A leaf is an element without element children.
func (d *Document) Paths() [][]string {
	var out [][]string
	var prefix []string
	var walk func(e *Elem)
	walk = func(e *Elem) {
		prefix = append(prefix, e.Name)
		if len(e.Children) == 0 {
			p := make([]string, len(prefix))
			copy(p, prefix)
			out = append(out, p)
		}
		for _, c := range e.Children {
			walk(c)
		}
		prefix = prefix[:len(prefix)-1]
	}
	walk(d.Root)
	return out
}

// AnnotatedPaths returns the root-to-leaf paths together with each path
// element's attributes (nil for attribute-less elements). Attribute maps
// are shared between paths traversing the same element.
func (d *Document) AnnotatedPaths() ([][]string, [][]map[string]string) {
	var paths [][]string
	var attrs [][]map[string]string
	var prefix []string
	var prefixAttrs []map[string]string
	attrMap := func(e *Elem) map[string]string {
		if len(e.Attrs) == 0 {
			return nil
		}
		m := make(map[string]string, len(e.Attrs))
		for _, a := range e.Attrs {
			m[a.Name] = a.Value
		}
		return m
	}
	memo := make(map[*Elem]map[string]string)
	var walk func(e *Elem)
	walk = func(e *Elem) {
		m, ok := memo[e]
		if !ok {
			m = attrMap(e)
			memo[e] = m
		}
		prefix = append(prefix, e.Name)
		prefixAttrs = append(prefixAttrs, m)
		if len(e.Children) == 0 {
			p := make([]string, len(prefix))
			copy(p, prefix)
			paths = append(paths, p)
			a := make([]map[string]string, len(prefixAttrs))
			copy(a, prefixAttrs)
			attrs = append(attrs, a)
		}
		for _, c := range e.Children {
			walk(c)
		}
		prefix = prefix[:len(prefix)-1]
		prefixAttrs = prefixAttrs[:len(prefixAttrs)-1]
	}
	walk(d.Root)
	return paths, attrs
}

// SymPaths returns the document's root-to-leaf paths interned against the
// shared symbol table — the representation the brokers match. Element names
// are interned (not merely looked up) so a document introduces its alphabet
// exactly once; repeat documents convert with lock-free reads only.
func (d *Document) SymPaths() [][]symtab.Sym {
	paths := d.Paths()
	out := make([][]symtab.Sym, len(paths))
	for i, p := range paths {
		out[i] = symtab.InternPath(p)
	}
	return out
}

// AnnotatedSymPaths is AnnotatedPaths with the element-name paths interned;
// the attribute maps are shared with the string form.
func (d *Document) AnnotatedSymPaths() ([][]symtab.Sym, [][]map[string]string) {
	paths, attrs := d.AnnotatedPaths()
	out := make([][]symtab.Sym, len(paths))
	for i, p := range paths {
		out[i] = symtab.InternPath(p)
	}
	return out, attrs
}

// Depth returns the maximum element nesting depth (the root counts as 1).
func (d *Document) Depth() int {
	var depth func(e *Elem) int
	depth = func(e *Elem) int {
		best := 1
		for _, c := range e.Children {
			if dd := 1 + depth(c); dd > best {
				best = dd
			}
		}
		return best
	}
	return depth(d.Root)
}

// CountElements returns the total number of elements.
func (d *Document) CountElements() int {
	var count func(e *Elem) int
	count = func(e *Elem) int {
		n := 1
		for _, c := range e.Children {
			n += count(c)
		}
		return n
	}
	return count(d.Root)
}

// Publication is one root-to-leaf path of a document, the unit the routers
// forward. DocID identifies the originating document so that subscribers
// (or their edge brokers) can reassemble or deduplicate deliveries; PathID
// is the index of the path within the document.
type Publication struct {
	DocID  uint64
	PathID int
	Path   []string
	// SymPath is Path interned against the shared symbol table, filled by
	// Extract and by the wire decoder, so every broker hop matches symbols
	// without re-converting. Nil is allowed (hand-built publications);
	// brokers then intern Path on arrival.
	SymPath []symtab.Sym
	// Attrs holds each path element's attributes (nil entries for
	// attribute-less elements; a nil slice means no attributes anywhere).
	// Subscriptions with attribute predicates are evaluated against it.
	Attrs []map[string]string
}

// String renders the publication path with its identifiers.
func (p Publication) String() string {
	return fmt.Sprintf("doc%d#%d:/%s", p.DocID, p.PathID, strings.Join(p.Path, "/"))
}

// Extract decomposes a document into its publications, attributes included.
func Extract(d *Document, docID uint64) []Publication {
	paths, attrs := d.AnnotatedPaths()
	pubs := make([]Publication, len(paths))
	for i, p := range paths {
		pubs[i] = Publication{DocID: docID, PathID: i, Path: p, SymPath: symtab.InternPath(p), Attrs: attrs[i]}
	}
	return pubs
}
