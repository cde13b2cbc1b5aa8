package xmlwire

import (
	"bytes"
	"fmt"
	"sync"
	"unicode/utf8"
)

// kind is what scanner.next stopped at.
type kind uint8

const (
	kEOF   kind = iota // end of input, or an error (scanner.err)
	kStart             // a start tag; scanner.name is the element
	kEnd               // an end tag, or the end half of <a/>
	kText              // a run of character data or one CDATA section
)

// scanner is a pull scanner over a whole document held in memory. It
// checks what it passes over — tag syntax, end tags against start tags,
// UTF-8, the characters XML allows, entities — and copies nothing: name
// and text are subslices of the input, and a text token is resolved
// (entities, line ends) only when appendText asks.
type scanner struct {
	in  []byte
	pos int

	name       []byte // of the tag next returned
	text       []byte // of the text token next returned, unresolved
	cdata      bool   // text is a CDATA section: no entities in it
	plain      bool   // text has nothing to resolve
	selfClosed bool   // the start tag just returned was <a/>: its end comes next

	open [][]byte // names of the elements not yet closed
	buf  []byte   // elementText's result when it is not a subslice of in
	err  error
}

var scanners = sync.Pool{New: func() any { return new(scanner) }}

// scan returns a scanner at the start of in; release gives it back.
func scan(in []byte) *scanner {
	s := scanners.Get().(*scanner)
	s.in, s.pos, s.selfClosed, s.open, s.err = in, 0, false, s.open[:0], nil
	return s
}

func (s *scanner) release() {
	s.in, s.name, s.text = nil, nil, nil
	clear(s.open[:cap(s.open)])
	if cap(s.buf) <= 1<<20 {
		scanners.Put(s)
	}
}

// fail records the error; the -1 it returns is the position after a piece
// of the document that could not be read.
func (s *scanner) fail(at int, what string) int {
	s.err = fmt.Errorf("xmlwire: %s at byte %d", what, at)
	return -1
}

// next advances to the next tag or text token. The XML declaration and
// comments are checked and passed over.
func (s *scanner) next() kind {
	if s.selfClosed {
		s.selfClosed, s.open = false, s.open[:len(s.open)-1]
		return kEnd
	}
	for s.err == nil {
		rest, k := s.in[s.pos:], kEOF
		switch {
		case len(rest) == 0:
			if len(s.open) > 0 {
				s.fail(s.pos, "unexpected end of input")
			}
			return kEOF
		case rest[0] != '<':
			k, s.pos = kText, s.charData(s.pos, inContent)
		case bytes.HasPrefix(rest, []byte("</")):
			k, s.pos = kEnd, s.endTag()
		case bytes.HasPrefix(rest, []byte("<?")):
			s.pos = s.declaration()
		case bytes.HasPrefix(rest, []byte("<!--")):
			// A comment ends at the first "--", which must be "-->". What is
			// inside is not character data and is not checked.
			if i := bytes.Index(rest[4:], []byte("--")); i >= 0 && bytes.HasPrefix(rest[4+i:], []byte("-->")) {
				s.pos += 4 + i + 3
			} else {
				s.fail(s.pos, "comment not closed by its first --")
			}
		case bytes.HasPrefix(rest, []byte("<![CDATA[")):
			k, s.pos = kText, s.charData(s.pos+9, inCDATA)
		case len(rest) > 1 && rest[1] == '!':
			s.fail(s.pos, "<!…> directives are not supported")
		default:
			k, s.pos = kStart, s.startTag()
		}
		if k != kEOF && s.err == nil {
			return k
		}
	}
	return kEOF
}

// special marks the bytes charData's inner loop stops at for a closer look.
var special = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf
	}
	for _, c := range `<>&"'` {
		t[c] = true
	}
	return t
}()

// What charData is reading, beside an attribute value, for which the mode
// is its quote character.
const (
	inContent = 0   // element content, up to the next '<' or the end of input
	inCDATA   = ']' // a CDATA section, through its ]]>
)

// charData checks the character data starting at i and returns where it
// ends; an attribute value ends after its closing quote. For the other two
// modes it sets s.text and s.cdata, and s.plain when the text holds neither
// an entity nor a carriage return and so is its own resolved form.
func (s *scanner) charData(i int, mode byte) int {
	in, start, plain := s.in, i, true
	quoted, cdata := mode != inContent && mode != inCDATA, mode == inCDATA
	for {
		for i < len(in) && !special[in[i]] {
			i++
		}
		if i == len(in) {
			if mode != inContent {
				return s.fail(i, "unexpected end of input")
			}
			break
		}
		switch c := in[i]; {
		case c >= utf8.RuneSelf:
			// U+FFFE and U+FFFF are the two code points above ASCII that XML
			// excludes.
			r, n := utf8.DecodeRune(in[i:])
			if r == utf8.RuneError && n == 1 || r == 0xFFFE || r == 0xFFFF {
				return s.fail(i, "invalid UTF-8 or a character XML forbids")
			}
			i += n - 1
		case c == '\r':
			plain = false
		case c < 0x20:
			return s.fail(i, "control character")
		case c == '>' && !quoted && i-start >= 2 && in[i-1] == ']' && in[i-2] == ']':
			if !cdata {
				return s.fail(i, "]]> outside a CDATA section")
			}
			s.text, s.cdata, s.plain = in[start:i-2], true, plain
			return i + 1
		case cdata: // nothing else is special in a CDATA section
		case c == mode:
			return i + 1
		case c == '<':
			if quoted {
				return s.fail(i, "unescaped < in an attribute value")
			}
			s.text, s.cdata, s.plain = in[start:i], false, plain
			return i
		case c == '&':
			_, n := entity(in[i:])
			if n == 0 {
				return s.fail(i, "invalid character entity")
			}
			plain = false
			i += n - 1
		}
		i++
	}
	s.text, s.cdata, s.plain = in[start:i], false, plain
	return i
}

// entity reads the character or entity reference b starts with: one of the
// five predefined names, &#N; or &#xN;. n is its width, 0 when it is none
// of those or names a character XML forbids. A surrogate code point reads
// as U+FFFD.
func entity(b []byte) (r rune, n int) {
	for _, e := range [...]struct {
		name string
		r    rune
	}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
		if bytes.HasPrefix(b, []byte(e.name)) {
			return e.r, len(e.name)
		}
	}
	if !bytes.HasPrefix(b, []byte("&#")) {
		return 0, 0
	}
	i, base := 2, rune(10)
	if bytes.HasPrefix(b, []byte("&#x")) {
		i, base = 3, 16
	}
	first := i
	for ; i < len(b) && r <= utf8.MaxRune; i++ { // past MaxRune the reference is already wrong
		c := rune(b[i])
		switch {
		case '0' <= c && c <= '9':
			r = r*base + c - '0'
		case base == 16 && 'a' <= c|0x20 && c|0x20 <= 'f':
			r = r*base + (c | 0x20) - 'a' + 10
		default:
			if c != ';' || i == first {
				return 0, 0
			}
			if 0xD800 <= r && r <= 0xDFFF {
				r = utf8.RuneError
			}
			if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
				return 0, 0
			}
			return r, i + 1
		}
	}
	return 0, 0
}

// appendText appends the current text token to dst, resolved: entities
// replaced, and \r\n and \r turned into \n as XML prescribes.
func (s *scanner) appendText(dst []byte) []byte {
	if s.plain {
		return append(dst, s.text...)
	}
	for t := s.text; len(t) > 0; {
		n := 1
		switch c := t[0]; {
		case c == '&' && !s.cdata:
			var r rune
			r, n = entity(t) // which charData has checked
			dst = utf8.AppendRune(dst, r)
		case c == '\r':
			dst = append(dst, '\n')
			if len(t) > 1 && t[1] == '\n' {
				n = 2
			}
		default:
			dst = append(dst, c)
		}
		t = t[n:]
	}
	return dst
}

// nameEnd returns the end of the name that starts at i. What it accepts is
// the ASCII part of XML's Name: a letter, '_' or ':' first, then also
// digits, '.' and '-'. A name that goes on past ASCII is refused: checking
// it would take XML's character tables, and nothing that talks to a queue
// service uses one.
func (s *scanner) nameEnd(i int) int {
	end := i
	for ; end < len(s.in); end++ {
		c := s.in[end]
		if !('a' <= c|0x20 && c|0x20 <= 'z' || c == '_' || c == ':' ||
			end > i && ('0' <= c && c <= '9' || c == '.' || c == '-')) {
			break
		}
	}
	if end == i || end < len(s.in) && s.in[end] >= utf8.RuneSelf {
		return s.fail(i, "expected an ASCII XML name")
	}
	return end
}

func (s *scanner) skipSpace(i int) int {
	for i < len(s.in) && (s.in[i] == ' ' || s.in[i] == '\t' || s.in[i] == '\n' || s.in[i] == '\r') {
		i++
	}
	return i
}

// startTag reads <name attr="value" …> or <name …/> and returns where it
// ends. Attributes are checked — a name with at most one colon, '=', a
// quoted value that is legal character data — and dropped.
func (s *scanner) startTag() int {
	i := s.nameEnd(s.pos + 1)
	if i < 0 {
		return i
	}
	s.name = s.in[s.pos+1 : i]
	if bytes.IndexByte(s.name, ':') >= 0 {
		return s.fail(s.pos, "namespace prefixes on elements are not supported")
	}
	s.open = append(s.open, s.name)
	for {
		i = s.skipSpace(i)
		switch rest := s.in[i:]; {
		case bytes.HasPrefix(rest, []byte(">")):
			return i + 1
		case bytes.HasPrefix(rest, []byte("/>")):
			s.selfClosed = true
			return i + 2
		}
		end := s.nameEnd(i)
		if end < 0 {
			return end
		}
		if bytes.Count(s.in[i:end], []byte(":")) > 1 {
			return s.fail(i, "attribute name with two colons")
		}
		if i = s.skipSpace(end); i == len(s.in) || s.in[i] != '=' {
			return s.fail(i, "attribute without =")
		}
		if i = s.skipSpace(i + 1); i == len(s.in) || s.in[i] != '"' && s.in[i] != '\'' {
			return s.fail(i, "unquoted attribute value")
		}
		if i = s.charData(i+1, s.in[i]); i < 0 {
			return i
		}
	}
}

// endTag reads </name>, checks it against the innermost open element and
// returns where it ends.
func (s *scanner) endTag() int {
	i := s.nameEnd(s.pos + 2)
	if i < 0 {
		return i
	}
	s.name = s.in[s.pos+2 : i]
	if i = s.skipSpace(i); i == len(s.in) || s.in[i] != '>' {
		return s.fail(i, "expected > to close the end tag")
	}
	if n := len(s.open); n == 0 || !bytes.Equal(s.open[n-1], s.name) {
		return s.fail(s.pos, "end tag does not match the open element")
	}
	s.open = s.open[:len(s.open)-1]
	return i + 1
}

// declaration reads <?xml …?> — version 1.0 when it gives one, UTF-8 when
// it names an encoding — and returns where it ends. Any other processing
// instruction is refused.
func (s *scanner) declaration() int {
	i := s.nameEnd(s.pos + 2)
	if i < 0 {
		return i
	}
	n := bytes.Index(s.in[i:], []byte("?>"))
	if n < 0 {
		return s.fail(s.pos, "unclosed processing instruction")
	}
	if string(s.in[s.pos+2:i]) != "xml" {
		return s.fail(s.pos, "processing instructions are not supported")
	}
	content := s.in[i : i+n]
	if v := declParam(content, "version="); len(v) > 0 && string(v) != "1.0" {
		return s.fail(s.pos, "unsupported XML version")
	}
	if enc := declParam(content, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
		return s.fail(s.pos, "unsupported encoding")
	}
	return i + n + 2
}

// declParam finds the quoted value that follows param (which ends in '=')
// in the content of an XML declaration, with the loose reading encoding/xml
// gives it: the first occurrence of param directly followed by a quote
// counts, wherever it stands.
func declParam(content []byte, param string) []byte {
	for i := 0; i < len(content); {
		k := bytes.Index(content[i:], []byte(param))
		if k < 0 || i+k+len(param) >= len(content) {
			return nil
		}
		i += k + len(param) + 1
		if q := content[i-1]; q == '"' || q == '\'' {
			if j := bytes.IndexByte(content[i:], q); j >= 0 {
				return content[i : i+j]
			}
			return nil
		}
	}
	return nil
}

// child advances to the next child of the element being read — at the top
// of the document, to the root — and returns its name; ok is false at the
// element's end tag, and at the end of input or an error (s.err).
func (s *scanner) child() (name []byte, ok bool) {
	for {
		switch s.next() {
		case kStart:
			return s.name, true
		case kEnd, kEOF:
			return nil, false
		}
	}
}

// skip passes over the content of the element whose start tag next just
// returned, through its end tag.
func (s *scanner) skip() {
	for depth := 1; depth > 0; {
		switch s.next() {
		case kStart:
			depth++
		case kEnd:
			depth--
		case kEOF:
			return
		}
	}
}

// elementText reads the content of the element whose start tag next just
// returned, through its end tag, and returns its character data: the text
// and CDATA directly in it, child elements and comments left out. The
// result is a subslice of the input when it is a single run with nothing to
// resolve — a base64 body — and s.buf, valid until the next elementText,
// otherwise; it means nothing once s.err is set.
func (s *scanner) elementText() []byte {
	var single []byte // the result so far, while it is one run of the input
	first := true
	s.buf = s.buf[:0]
	for {
		switch s.next() {
		case kText:
			if first && s.plain {
				single = s.text
			} else {
				s.buf, single = s.appendText(append(s.buf, single...)), nil
			}
			first = false
		case kStart:
			s.skip()
		default:
			if single != nil {
				return single
			}
			return s.buf
		}
	}
}
