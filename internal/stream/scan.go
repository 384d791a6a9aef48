package stream

import (
	"bytes"
	"fmt"
	"unicode"
	"unicode/utf8"
)

// scanner is a strict, allocation-free XML tokenizer over an in-memory
// document. It is a semantic mirror of encoding/xml's rawToken/Token
// machinery in the exact configuration xmldoc.Parse uses (Strict mode, no
// custom Entity map, no CharsetReader): every document it accepts is
// accepted by xmldoc.Parse and vice versa — the differential tests and the
// FuzzStreamEquivalence target pin this byte for byte. It deliberately does
// NOT build tokens: element names and attribute values stay as spans into
// the input, text and CDATA sections are validated (character range, UTF-8,
// entities) and discarded, and the wire document bounds are enforced
// incrementally as tags are opened, so one pass over the bytes both
// validates the document and drives the matcher.
//
// The structural callbacks (onOpen/onClose) fire in document order; a
// self-closing tag fires both. End-tag balance is checked on the RAW
// (pre-namespace-translation) names, which is exactly what encoding/xml's
// popElement compares — Token translates names only after the match.

// span is a half-open byte range into scanner.data.
type span struct{ start, end int32 }

func (sp span) of(data []byte) []byte { return data[sp.start:sp.end] }

// attrSpan is one attribute of a start tag: the local part of its name and
// its raw (undecoded) value. esc records whether decoding the value would
// change it ('&' entities or '\r' rewriting).
type attrSpan struct {
	local span
	value span
	esc   bool
}

type scanner struct {
	data  []byte
	pos   int
	lim   Limits
	elems int

	names []span     // raw full names of the open elements, for balance
	attrs []attrSpan // attributes of the tag currently being parsed

	onOpen  func(local span, attrs []attrSpan) // nil for validation-only scans
	onClose func()
}

func (s *scanner) reset(data []byte, lim Limits) {
	s.data, s.pos, s.lim, s.elems = data, 0, lim, 0
	s.names = s.names[:0]
	s.attrs = s.attrs[:0]
}

func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("stream: syntax error: "+format, args...)
}

func (s *scanner) mustgetc() (byte, error) {
	if s.pos >= len(s.data) {
		return 0, s.errf("unexpected EOF")
	}
	b := s.data[s.pos]
	s.pos++
	return b, nil
}

// space skips XML whitespace, like Decoder.space.
func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// run scans one whole document. It folds the token loop of xmldoc.Parse
// into the tokenizer: exactly one root element, balanced tags, and clean
// EOF are required; top-level text, comments, PIs, and directives are
// validated and skipped.
func (s *scanner) run() error {
	sawRoot := false
	for {
		if s.pos >= len(s.data) {
			if len(s.names) > 0 {
				return s.errf("unexpected EOF")
			}
			if !sawRoot {
				return s.errf("no root element")
			}
			return nil
		}
		b := s.data[s.pos]
		s.pos++
		if b != '<' {
			s.pos--
			if _, err := s.text(-1, false); err != nil {
				return err
			}
			continue
		}
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		switch b {
		case '/':
			if err := s.endTag(); err != nil {
				return err
			}
		case '?':
			if err := s.procInstTok(); err != nil {
				return err
			}
		case '!':
			if err := s.bangTok(); err != nil {
				return err
			}
		default:
			s.pos--
			if len(s.names) == 0 && sawRoot {
				return s.errf("multiple root elements")
			}
			sawRoot = true
			if err := s.startTag(); err != nil {
				return err
			}
		}
	}
}

// startTag parses one start tag (name consumed from just after '<'),
// enforces the document limits in CheckDoc's order (depth, element count,
// local name length), and fires the structural callbacks.
func (s *scanner) startTag() error {
	full, local, err := s.nsname("expected element name after <")
	if err != nil {
		return err
	}
	if s.lim.MaxDepth > 0 && len(s.names) >= s.lim.MaxDepth {
		return fmt.Errorf("stream: document deeper than %d", s.lim.MaxDepth)
	}
	s.elems++
	if s.lim.MaxElems > 0 && s.elems > s.lim.MaxElems {
		return fmt.Errorf("stream: document with more than %d elements", s.lim.MaxElems)
	}
	if s.lim.MaxName > 0 && int(local.end-local.start) > s.lim.MaxName {
		return fmt.Errorf("stream: element name of %d bytes exceeds %d", local.end-local.start, s.lim.MaxName)
	}
	s.attrs = s.attrs[:0]
	selfClose := false
	for {
		s.space()
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		if b == '/' {
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b != '>' {
				return s.errf("expected /> in element")
			}
			selfClose = true
			break
		}
		if b == '>' {
			break
		}
		s.pos--
		_, alocal, err := s.nsname("expected attribute name in element")
		if err != nil {
			return err
		}
		s.space()
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '=' {
			return s.errf("attribute name without = in element")
		}
		s.space()
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '"' && b != '\'' {
			return s.errf("unquoted or missing attribute value in element")
		}
		vstart := s.pos
		esc, err := s.text(int(b), false)
		if err != nil {
			return err
		}
		s.attrs = append(s.attrs, attrSpan{
			local: alocal,
			value: span{int32(vstart), int32(s.pos - 1)}, // excludes the closing quote
			esc:   esc,
		})
	}
	if s.onOpen != nil {
		s.onOpen(local, s.attrs)
	}
	if selfClose {
		if s.onClose != nil {
			s.onClose()
		}
	} else {
		s.names = append(s.names, full)
	}
	return nil
}

// endTag parses "</name >" (the "</" is already consumed) and pops the
// element stack, rejecting unbalanced or mismatched closes.
func (s *scanner) endTag() error {
	full, _, err := s.nsname("expected element name after </")
	if err != nil {
		return err
	}
	s.space()
	b, err := s.mustgetc()
	if err != nil {
		return err
	}
	if b != '>' {
		return s.errf("invalid characters between </%s and >", full.of(s.data))
	}
	if len(s.names) == 0 {
		return s.errf("unexpected end element </%s>", full.of(s.data))
	}
	top := s.names[len(s.names)-1]
	if !bytes.Equal(top.of(s.data), full.of(s.data)) {
		return s.errf("element <%s> closed by </%s>", top.of(s.data), full.of(s.data))
	}
	s.names = s.names[:len(s.names)-1]
	if s.onClose != nil {
		s.onClose()
	}
	return nil
}

// rawName reads one XML name (Decoder.readName + isName): ASCII name bytes
// or any multi-byte rune, validated against the XML name character classes.
// A non-name first byte reports errMsg; EOF and invalid characters report
// their own errors — exactly the stdlib's split between "not a name here"
// and "broken name".
func (s *scanner) rawName(errMsg string) (span, error) {
	start := s.pos
	if s.pos >= len(s.data) {
		return span{}, s.errf("unexpected EOF")
	}
	if b := s.data[s.pos]; b < utf8.RuneSelf && !isNameByte(b) {
		return span{}, s.errf("%s", errMsg)
	}
	s.pos++
	for {
		if s.pos >= len(s.data) {
			// readName's mustgetc fails here: a name running into EOF is
			// an error even though the bytes so far form a valid name.
			return span{}, s.errf("unexpected EOF")
		}
		if b := s.data[s.pos]; b < utf8.RuneSelf && !isNameByte(b) {
			break
		}
		s.pos++
	}
	raw := s.data[start:s.pos]
	if !validName(raw) {
		return span{}, s.errf("invalid XML name: %s", raw)
	}
	return span{int32(start), int32(s.pos)}, nil
}

// nsname is rawName plus the namespace-prefix rules of Decoder.nsname:
// more than one colon rejects; the local part is the piece after the first
// colon, except that a leading or trailing colon leaves the whole name as
// the local part.
func (s *scanner) nsname(errMsg string) (full, local span, err error) {
	full, err = s.rawName(errMsg)
	if err != nil {
		return full, local, err
	}
	raw := full.of(s.data)
	c := bytes.IndexByte(raw, ':')
	if c < 0 || c == 0 || c == len(raw)-1 {
		return full, full, nil
	}
	if bytes.IndexByte(raw[c+1:], ':') >= 0 {
		return full, local, s.errf("%s", errMsg)
	}
	return full, span{full.start + int32(c) + 1, full.end}, nil
}

// validName reports whether b is a valid XML name (isName semantics), with
// an ASCII fast path for the common case.
func validName(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	i := 0
	if b[0] < utf8.RuneSelf {
		if !isNameStartByte(b[0]) {
			return false
		}
		for i = 1; i < len(b) && b[i] < utf8.RuneSelf; i++ {
			if !isNameByte(b[i]) {
				return false
			}
		}
		if i == len(b) {
			return true
		}
	}
	rest := b[i:]
	first := i == 0
	for len(rest) > 0 {
		c, n := utf8.DecodeRune(rest)
		if c == utf8.RuneError && n == 1 {
			return false
		}
		if first {
			if !unicode.Is(nameStart, c) {
				return false
			}
			first = false
		} else if !unicode.Is(nameStart, c) && !unicode.Is(nameMore, c) {
			return false
		}
		rest = rest[n:]
	}
	return true
}

// text validates one text region without materialising it, mirroring
// Decoder.text: quote < 0 scans element text up to '<' or EOF; quote is the
// delimiter byte for attribute values; cdata scans to "]]>". Entities are
// validated and their decoded runes range-checked; raw segments are
// UTF-8- and character-range-checked. esc reports whether decoding would
// rewrite the region (entities or '\r').
func (s *scanner) text(quote int, cdata bool) (esc bool, err error) {
	var b0, b1 byte
	segStart := s.pos
	for {
		if s.pos >= len(s.data) {
			if cdata {
				return esc, s.errf("unexpected EOF in CDATA section")
			}
			break
		}
		b := s.data[s.pos]
		s.pos++
		// "]]>" ends CDATA and is an error in plain text, but is allowed
		// inside quoted strings.
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				break
			}
			return esc, s.errf("unescaped ]]> not in CDATA section")
		}
		if b == '<' && !cdata {
			if quote >= 0 {
				return esc, s.errf("unescaped < inside quoted string")
			}
			s.pos-- // the '<' belongs to the next token
			break
		}
		if quote >= 0 && b == byte(quote) {
			break
		}
		if b == '&' && !cdata {
			if err := s.checkChars(s.data[segStart : s.pos-1]); err != nil {
				return esc, err
			}
			if err := s.entity(); err != nil {
				return esc, err
			}
			esc = true
			segStart = s.pos
			b0, b1 = 0, 0 // entity substitution resets the ]]> detector
			continue
		}
		if b == '\r' {
			esc = true // decoding rewrites \r and \r\n to \n
		}
		b0, b1 = b1, b
	}
	// The bytes consumed past the content (closing quote, "]]>") are valid
	// characters, so validating them along with the final segment is
	// harmless.
	return esc, s.checkChars(s.data[segStart:s.pos])
}

// checkChars validates a raw text segment: well-formed UTF-8 and every rune
// inside the XML character range.
func (s *scanner) checkChars(b []byte) error {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 || c == 0x09 || c == 0x0A || c == 0x0D {
				i++
				continue
			}
			return s.errf("illegal character code %U", rune(c))
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return s.errf("invalid UTF-8")
		}
		if !isInCharacterRange(r) {
			return s.errf("illegal character code %U", r)
		}
		i += size
	}
	return nil
}

// entity validates one character entity; s.pos is just past the '&'. In
// strict mode with no custom entity map only "&#d;", "&#xh;" (value within
// the rune space and the XML character range after the string(rune)
// normalisation), and the five predefined named entities are legal —
// anything else is an error, mirroring Decoder.text's entity branch.
func (s *scanner) entity() error {
	b, err := s.mustgetc()
	if err != nil {
		return err
	}
	if b == '#' {
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		base := 10
		if b == 'x' {
			base = 16
			if b, err = s.mustgetc(); err != nil {
				return err
			}
		}
		start := s.pos - 1
		for '0' <= b && b <= '9' ||
			base == 16 && 'a' <= b && b <= 'f' ||
			base == 16 && 'A' <= b && b <= 'F' {
			if b, err = s.mustgetc(); err != nil {
				return err
			}
		}
		if b != ';' {
			return s.errf("invalid character entity (no semicolon)")
		}
		digits := s.data[start : s.pos-1]
		if len(digits) == 0 {
			return s.errf("invalid character entity")
		}
		var n uint64
		for _, c := range digits {
			var v uint64
			switch {
			case '0' <= c && c <= '9':
				v = uint64(c - '0')
			case 'a' <= c && c <= 'f':
				v = uint64(c-'a') + 10
			default:
				v = uint64(c-'A') + 10
			}
			if n = n*uint64(base) + v; n > unicode.MaxRune {
				return s.errf("invalid character entity")
			}
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError // string(rune(n)) yields U+FFFD for surrogates
		}
		if !isInCharacterRange(r) {
			return s.errf("illegal character code %U", r)
		}
		return nil
	}
	// Named entity: name bytes, ';', and membership in the predefined five.
	if b < utf8.RuneSelf && !isNameByte(b) {
		return s.errf("invalid character entity")
	}
	start := s.pos - 1
	for {
		if s.pos >= len(s.data) {
			return s.errf("unexpected EOF")
		}
		if c := s.data[s.pos]; c < utf8.RuneSelf && !isNameByte(c) {
			break
		}
		s.pos++
	}
	name := s.data[start:s.pos]
	if s.data[s.pos] != ';' {
		return s.errf("invalid character entity &%s (no semicolon)", name)
	}
	s.pos++
	if entityRune(name) == 0 {
		return s.errf("invalid character entity &%s;", name)
	}
	return nil
}

// entityRune resolves the five predefined entities (0 for anything else).
func entityRune(name []byte) rune {
	switch string(name) { // compiles to a no-copy comparison
	case "lt":
		return '<'
	case "gt":
		return '>'
	case "amp":
		return '&'
	case "apos":
		return '\''
	case "quot":
		return '"'
	}
	return 0
}

// procInstTok validates a processing instruction ("<?" consumed). The
// target is a plain name (no namespace colon rules, like Decoder.name), the
// body is scanned to "?>" without character validation, and an "xml"
// declaration's version/encoding parameters are checked the way the stdlib
// checks them with a nil CharsetReader.
func (s *scanner) procInstTok() error {
	target, err := s.rawName("expected target name after <?")
	if err != nil {
		return err
	}
	s.space()
	start := s.pos
	var b0 byte
	for {
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if string(target.of(s.data)) == "xml" {
		content := s.data[start : s.pos-2]
		if ver := procInstParam(verParam, content); len(ver) > 0 && string(ver) != "1.0" {
			return fmt.Errorf("stream: unsupported version %q; only version 1.0 is supported", ver)
		}
		if enc := procInstParam(encParam, content); len(enc) > 0 && !equalFoldUTF8(enc) {
			return fmt.Errorf("stream: encoding %q declared but only UTF-8 is supported", enc)
		}
	}
	return nil
}

var (
	verParam = []byte("version=")
	encParam = []byte("encoding=")
)

// procInstParam extracts a pseudo-attribute from an xml declaration,
// mirroring the stdlib's (self-describedly lame but compatible) procInst.
func procInstParam(param, s []byte) []byte {
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return nil
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// equalFoldUTF8 reports whether enc case-folds to "utf-8" (ASCII fold is
// all strings.EqualFold needs here).
func equalFoldUTF8(enc []byte) bool {
	const want = "utf-8"
	if len(enc) != len(want) {
		return false
	}
	for i := 0; i < len(want); i++ {
		c := enc[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != want[i] {
			return false
		}
	}
	return true
}

// bangTok handles "<!": comments, CDATA sections, and directives
// (<!DOCTYPE ...> etc.), with the stdlib's exact accept/reject behaviour —
// including "--" being illegal inside comments and the quote/nesting/
// embedded-comment machinery of directive scanning.
func (s *scanner) bangTok() error {
	b, err := s.mustgetc()
	if err != nil {
		return err
	}
	switch b {
	case '-': // <!-- comment
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '-' {
			return s.errf("invalid sequence <!- not part of <!--")
		}
		var b0, b1 byte
		for {
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return s.errf(`invalid sequence "--" not allowed in comments`)
				}
				return nil
			}
			b0, b1 = b1, b
		}
	case '[': // <![CDATA[
		for i := 0; i < 6; i++ {
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b != "CDATA["[i] {
				return s.errf("invalid <![ sequence")
			}
		}
		_, err = s.text(-1, true)
		return err
	}
	// Directive. The first byte after "<!" is NOT run through the state
	// machine (the stdlib only buffers it), so a quote or bracket there has
	// no effect — replicated faithfully.
	var inquote byte
	depth := 0
	for {
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	HandleB:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
			// In quotes: no special action.
		case b == '\'' || b == '"':
			inquote = b
		case b == '>' && inquote == 0:
			depth--
		case b == '<' && inquote == 0:
			// Look for <!-- to begin a comment; a failed match replays the
			// mismatched byte through the state machine (skipping the
			// loop-top break check), exactly like the stdlib's goto.
			const seq = "!--"
			for i := 0; i < len(seq); i++ {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b != seq[i] {
					depth++
					goto HandleB
				}
			}
			// Comment inside a directive: scan to "-->" ("--" is legal here).
			var b0, b1 byte
			for {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}
