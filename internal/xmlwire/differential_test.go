package xmlwire

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
)

func TestHeaderIsTheStandardLibrarys(t *testing.T) {
	if header != xml.Header {
		t.Errorf("header %q, xml.Header %q", header, xml.Header)
	}
}

// awkward are the pieces IDs and pop receipts are drawn from: what
// EscapeText escapes, what it replaces, and what it leaves alone.
var awkward = []string{
	"q-1-msg-7", "pr-12", "", " ", "<", "&", ">", `"`, "'", "\r", "\n", "\t", "\r\n",
	"\uFFFD", "\xff", "\xc3", "\xed\xa0\x80", "\x00", "\x0b", "\x1f", "\x7f", "\uFFFE", "\uFFFF",
	"café", "世界", "\U0001F600", "]]>", "&amp;", "&#xD;", "<!--", "<![CDATA[",
}

// wireMessages is a testing/quick generator of message lists: bodies that
// are empty, every byte value, 64 KiB or random, and IDs and receipts made
// of awkward pieces.
type wireMessages []queuestore.Message

func (wireMessages) Generate(r *rand.Rand, _ int) reflect.Value {
	text := func() string {
		var b strings.Builder
		for n := r.Intn(4); n > 0; n-- {
			b.WriteString(awkward[r.Intn(len(awkward))])
		}
		return b.String()
	}
	msgs := make(wireMessages, r.Intn(4))
	for i := range msgs {
		var body []byte
		switch r.Intn(5) {
		case 0:
		case 1:
			body = everyByte()
		case 2:
			body = payload.Synthetic(r.Uint64(), 64<<10).Materialize()
		default:
			body = make([]byte, r.Intn(700))
			r.Read(body)
		}
		at := time.Unix(r.Int63n(253402300800), r.Int63n(1e9)) // to the end of year 9999
		msgs[i] = queuestore.Message{
			ID: text(), PopReceipt: text(), Body: payload.Bytes(body), DequeueCount: r.Intn(1000) - 1,
			Inserted: at, Expires: at.Add(time.Duration(r.Int63n(int64(7 * 24 * time.Hour)))),
			NextVisible: at.Add(time.Duration(r.Int63n(int64(time.Hour)))),
		}
	}
	return reflect.ValueOf(msgs)
}

func everyByte() []byte {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// checkListAgainstModel holds one message list to the codec's contract
// with the model: the writer's bytes are the model's, and the reader gives
// back what the model's reader gives — and, of what the model's reader
// drops, the times as written.
func checkListAgainstModel(t testing.TB, msgs []queuestore.Message, peek bool) {
	t.Helper()
	wire := AppendMessagesList(nil, msgs, peek)
	if want := modelEncodeMessagesList(msgs, peek); !bytes.Equal(wire, want) {
		t.Fatalf("writer bytes differ from the model's (peek %v)\n got: %s\nwant: %s", peek, wire, want)
	}
	got, err := DecodeMessagesList(wire)
	want, modelErr := modelDecodeMessagesList(wire)
	if err != nil || modelErr != nil {
		t.Fatalf("reading the writer's bytes back: %v, model %v\n%s", err, modelErr, wire)
	}
	if len(got) != len(want) || len(got) != len(msgs) {
		t.Fatalf("%d messages written, %d read back, model %d", len(msgs), len(got), len(want))
	}
	for i, m := range got {
		w := want[i]
		if m.ID != w.ID || m.PopReceipt != w.PopReceipt || m.DequeueCount != w.DequeueCount ||
			!m.NextVisible.Equal(w.NextVisible) || !bytes.Equal(m.Body.AsBytes(), w.Body) {
			t.Fatalf("message %d read back as %+v, model %+v", i, m, w)
		}
		in := msgs[i]
		if !m.Inserted.Equal(in.Inserted.Truncate(time.Second)) || !m.Expires.Equal(in.Expires.Truncate(time.Second)) ||
			!bytes.Equal(m.Body.AsBytes(), in.Body.AsBytes()) || peek != m.NextVisible.IsZero() {
			t.Fatalf("message %d read back as %+v, written %+v", i, m, in)
		}
	}
}

func TestMessagesListMatchesModel(t *testing.T) {
	check := func(msgs wireMessages, peek bool) bool {
		checkListAgainstModel(t, msgs, peek)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQueueMessageMatchesModel(t *testing.T) {
	check := func(body []byte) {
		t.Helper()
		wire := AppendQueueMessage(nil, body)
		if want := modelEncodeQueueMessage(body); !bytes.Equal(wire, want) {
			t.Fatalf("request body differs from the model's\n got: %s\nwant: %s", wire, want)
		}
		if got, err := DecodeQueueMessage(wire); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("body of %d bytes read back as %d bytes, %v", len(body), len(got), err)
		}
		checkBodyAgainstModel(t, wire)
	}
	check(nil)
	check(everyByte())
	check(payload.Synthetic(1, 64<<10).Materialize())
	if err := quick.Check(func(body []byte) bool { check(body); return true }, nil); err != nil {
		t.Error(err)
	}
	// Appending leaves what is already in the buffer alone.
	if got := AppendQueueMessage([]byte("kept"), []byte("hi")); string(got) != "kept<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>" {
		t.Errorf("AppendQueueMessage onto a prefix = %s", got)
	}
}

// refusable reports whether the document in raw, up to the end of its root
// element, holds one of the constructs the scanner refuses although
// encoding/xml reads them: a directive, a processing instruction other
// than the XML declaration, an element name with a prefix, or an element
// or attribute name outside ASCII.
func refusable(raw []byte) bool {
	ascii := func(s string) bool { return strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) < 0 }
	d := xml.NewDecoder(bytes.NewReader(raw))
	depth := 0
	for {
		tok, err := d.RawToken()
		if err != nil {
			return false
		}
		switch tok := tok.(type) {
		case xml.Directive:
			return true
		case xml.ProcInst:
			if tok.Target != "xml" {
				return true
			}
		case xml.StartElement:
			if tok.Name.Space != "" || strings.Contains(tok.Name.Local, ":") || !ascii(tok.Name.Local) {
				return true
			}
			for _, a := range tok.Attr {
				if !ascii(a.Name.Space) || !ascii(a.Name.Local) {
					return true
				}
			}
			depth++
		case xml.EndElement:
			if depth--; depth == 0 {
				return false
			}
		}
	}
}

// checkBodyAgainstModel holds one request body to the reader's contract
// with the model. Accepting it means the model accepts it with the same
// text; the model rejecting it means rejecting it; and rejecting what the
// model accepts is allowed only for a body that is refusable. It returns
// the verdict: "accept", "reject" or — the last case — "refuse".
func checkBodyAgainstModel(t testing.TB, raw []byte) string {
	t.Helper()
	s := scan(raw)
	textBytes, err := s.queueMessage()
	text := string(textBytes)
	s.release()
	wantText, modelErr := modelQueueMessageText(raw)

	body, decodeErr := DecodeQueueMessage(raw)
	switch {
	case err != nil:
		if decodeErr == nil {
			t.Fatalf("DecodeQueueMessage accepts what its scanner rejects (%v)\ninput: %q", err, raw)
		}
		if modelErr != nil {
			return "reject"
		}
		if !refusable(raw) {
			t.Fatalf("rejected (%v) what the model accepts with text %q, and nothing in it is refusable\ninput: %q", err, wantText, raw)
		}
		return "refuse"
	case modelErr != nil:
		t.Fatalf("accepted with text %q what the model rejects: %v\ninput: %q", text, modelErr, raw)
	case text != wantText:
		t.Fatalf("message text %q, model %q\ninput: %q", text, wantText, raw)
	}
	wantBody, base64Err := base64.StdEncoding.DecodeString(wantText)
	if (decodeErr != nil) != (base64Err != nil) || decodeErr == nil && !bytes.Equal(body, wantBody) {
		t.Fatalf("DecodeQueueMessage = %q, %v; model %q, %v\ninput: %q", body, decodeErr, wantBody, base64Err, raw)
	}
	if decodeErr != nil {
		return "reject"
	}
	return "accept"
}

// bodyCorners are hand-written request bodies: every construct the reader
// accepts, every one it rejects with the model, and the classes it
// refuses on its own.
var bodyCorners = []struct{ verdict, in string }{
	// --- accepted ---
	{"accept", `<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<?xml version="1.0"?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<?xml version='1.0' encoding='utf-8' standalone='yes'?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<?xml?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<?xml version=""?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><?xml version="1.0"?><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<!-- before --><QueueMessage><!-- in --><MessageText>aGk=</MessageText><!-- after --></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText>aG<!-- inside the text -->k=</MessageText></QueueMessage>`},
	{"accept", "<QueueMessage><!-- \xff \x00 <&> - ]]> --><MessageText>aGk=</MessageText></QueueMessage>"},
	{"accept", `<QueueMessage><!----><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", "\n<QueueMessage>\n  <MessageText>aGk=</MessageText>\n</QueueMessage>\n"},
	{"accept", "\r\n<QueueMessage>\r\n\t<MessageText\r\n>aGk=</MessageText >\r\n</QueueMessage\t>\r\n"},
	{"accept", `junk before the root<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>trailing <<< &bad; ` + "\xff"},
	{"accept", `<QueueMessage><MessageText>aGk=</MessageText></QueueMessage><!DOCTYPE late><?late?><x:y/>`},
	{"accept", `<QueueMessage xmlns="http://example.org/q"><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText xml:space='preserve' xmlns:i="u" i:nil="false">aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage a="1"b='2' c = "3"	d
="4"><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage a="&lt;&amp;&#65; > ]]> ' " b='"'><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage :="colon" _="underscore" a.b-c_1="x"><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><Extra/><MessageText>aGk=</MessageText><Extra a="1" /></QueueMessage>`},
	{"accept", `<QueueMessage><Extra><Deep><MessageText>bm8=</MessageText></Deep>text</Extra><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><a.b-c_d1><_x/></a.b-c_d1><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText/></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText></MessageText></QueueMessage>`},
	{"accept", `<QueueMessage/>`},
	{"accept", `<QueueMessage></QueueMessage>`},
	{"accept", `<QueueMessage   />`},
	{"accept", `<QueueMessage><messagetext>!!!</messagetext></QueueMessage>`},
	{"accept", `<QueueMessage><Other><MessageText>!!!</MessageText></Other></QueueMessage>`},
	{"accept", `<QueueMessage>stray &amp; text<MessageText>aGk=</MessageText>caf` + "é \uFFFD \U0001F600" + `</QueueMessage>`},
	{"accept", `<QueueMessage><MessageText>&#x61;Gk&#61;</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText>&#97;&#0000071;&#x6B;&#x3d;</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText><![CDATA[aGk=]]></MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText>a<![CDATA[G]]>k<![CDATA[]]>=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText>aG<b>not this</b>k<c/>=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText>!!!</MessageText><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><MessageText>aGk=</MessageText><MessageText/></QueueMessage>`},
	{"accept", "<QueueMessage><MessageText>\naGVs\r\nbG8=\r</MessageText></QueueMessage>"},
	{"accept", "<QueueMessage><MessageText><![CDATA[aGVs\r\nbG8=\r]]></MessageText></QueueMessage>"},
	{"accept", `<QueueMessage><MessageText>aGVs&#13;&#10;&#xD;bG8=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage><![CDATA[ <not a="tag"> & ]]]]><![CDATA[> ]]><MessageText>aGk=</MessageText></QueueMessage>`},
	{"accept", `<QueueMessage>]]&gt; ]]<!-- -->> ] ]> ]>]<MessageText>aGk=</MessageText></QueueMessage>`},
	// XML accepts these; what they carry is not base64.
	{"reject", `<QueueMessage><MessageText>&lt;&gt;&amp;&apos;&quot;</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><MessageText>a&#xD800;b &#xDFFF; &#xFFFD; &#x10FFFF; &#9;</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><MessageText><![CDATA[<&]]]]><![CDATA[>]]></MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><MessageText>aGk=</MessageText><MessageText>!!!</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><MessageText>aGk</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><MessageText>aG k=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><MessageText>` + "café" + `</MessageText></QueueMessage>`},

	// --- rejected, as the model rejects them ---
	{"reject", ``},
	{"reject", " \n\t"},
	{"reject", `<!-- no root -->`},
	{"reject", `just text`},
	{"reject", `<Message><MessageText>aGk=</MessageText></Message>`},
	{"reject", `<queuemessage><MessageText>aGk=</MessageText></queuemessage>`},
	{"reject", `<QueueMessages><MessageText>aGk=</MessageText></QueueMessages>`},
	{"reject", `<QueueMessage><MessageText>aGk=</MessageTxt></QueueMessage>`},
	{"reject", `<QueueMessage><MessageText>aGk=</QueueMessage></MessageText>`},
	{"reject", `<QueueMessage><MessageText>aGk=</MessageText>`},
	{"reject", `<QueueMessage><MessageText>aGk=`},
	{"reject", `<QueueMessage><MessageText>aGk=</MessageText></QueueMessage`},
	{"reject", `<QueueMessage><MessageText>aGk=</MessageText></QueueMessage x="1">`},
	{"reject", `</QueueMessage><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><Extra><MessageText>aGk=</Extra></MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><a><b></a></b></QueueMessage>`},
	{"reject", "<QueueMessage><MessageText>aGk=\xff</MessageText></QueueMessage>"},
	{"reject", "<QueueMessage>\xc3<MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", "\xed\xa0\x80<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", "<QueueMessage a=\"\xff\"><MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", "<QueueMessage><![CDATA[\xff]]><MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", "<QueueMessage><MessageText>aGk=\x00</MessageText></QueueMessage>"},
	{"reject", "<QueueMessage>\x0b<MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", "<QueueMessage><![CDATA[\x1f]]><MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", "<QueueMessage a='\x01'><MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", "<QueueMessage>\uFFFE<MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", "<QueueMessage><![CDATA[\uFFFF]]><MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", `<QueueMessage>&#0;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&#x1F;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&#xFFFE;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&#x110000;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&#99999999999999999999999;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>a ]]> b<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><![CDATA[x]]>]]><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&nbsp;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&lt<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&ltx;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>& <MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&#;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&#x;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&#X41;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&#6a;<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage>&#65<MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage a="&bad;"><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage a='&#0;'><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<?xml notversion="9" version="1.0"?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`}, // the model's loose reading: that is version 9
	{"reject", `<?xml version="1.1"?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<?xml version="1.0" encoding="ISO-8859-1"?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<?xml version="1.0" encoding="UTF8"?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><?xml version="2"?><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<?xml version="1.0"<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<? ?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage a=1><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage a><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage a=><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage a="<"><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage a="unterminated><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage a:b:c="1"><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage "a"="1"><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage / >`},
	{"reject", `<QueueMessage /`},
	{"reject", `< QueueMessage/>`},
	{"reject", `<QueueMessage><-a/><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><1a/><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><a` + "×" + `/><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", "<QueueMessage><a\xff/><MessageText>aGk=</MessageText></QueueMessage>"},
	{"reject", `<QueueMessage><!-- a -- b --><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><!-- unclosed <MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><!---><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><!-- a ---><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><![CDATA[ unclosed <MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><![CDAT[x]]><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><!- x --><MessageText>aGk=</MessageText></QueueMessage>`},
	{"reject", `<QueueMessage><`},
	{"reject", `<QueueMessage><!`},
	{"reject", `<QueueMessage></`},
	{"reject", `<`},
	{"reject", `<!><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},

	// --- refused, although the model reads them ---
	{"refuse", `<!DOCTYPE QueueMessage><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<!DOCTYPE q [<!ENTITY hi "aGk="> <!-- c --> ]><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<QueueMessage><!ELEMENT x ANY><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<?xml-stylesheet href="a.css"?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<QueueMessage><?php echo 1 ?><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<?XML version="1.0"?><QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<q:QueueMessage xmlns:q="u"><q:MessageText>aGk=</q:MessageText></q:QueueMessage>`},
	{"refuse", `<QueueMessage><q:MessageText>aGk=</q:MessageText></QueueMessage>`},
	{"refuse", `<QueueMessage><x:y/><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<QueueMessage><:a/><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<QueueMessage><` + "élément" + `/><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<QueueMessage><a` + "é" + `/><MessageText>aGk=</MessageText></QueueMessage>`},
	{"refuse", `<QueueMessage><MessageText ` + "é" + `="1">aGk=</MessageText></QueueMessage>`},
}

func TestRequestBodyCorners(t *testing.T) {
	counts := map[string]int{}
	for _, c := range bodyCorners {
		if got := checkBodyAgainstModel(t, []byte(c.in)); got != c.verdict {
			t.Errorf("verdict %s, want %s\ninput: %q", got, c.verdict, c.in)
		}
		counts[c.verdict]++
	}
	t.Logf("%d bodies: %v", len(bodyCorners), counts)
	if len(bodyCorners) < 60 {
		t.Errorf("only %d corner bodies", len(bodyCorners))
	}
}

// Allocation ceilings: the writers allocate nothing beyond the growth of
// their destination, the scanner nothing at all — resolved text goes into a
// buffer that stays with the pooled scanner — and reading a request body is
// the one buffer the message is returned in.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	body := payload.Synthetic(5, 512).Materialize()
	msgs := []queuestore.Message{
		{ID: "q-msg-1", PopReceipt: "pr-1", Body: payload.Bytes(body), DequeueCount: 1},
		{ID: "<&>", PopReceipt: "\r\xff", Body: payload.Bytes(everyByte())},
	}
	dst := make([]byte, 0, 4096)
	plain := AppendQueueMessage(nil, body)
	resolved := []byte(`<?xml version="1.0"?><QueueMessage a="&amp;"><!-- c --><MessageText>aGVs&#10;<![CDATA[bG8=` + "\r\n" + `]]><x/>` + "\r" + `</MessageText></QueueMessage>`)
	for _, c := range []struct {
		name    string
		ceiling float64
		call    func()
	}{
		{"AppendQueueMessage", 0, func() { dst = AppendQueueMessage(dst[:0], body) }},
		{"AppendMessagesList", 0, func() { dst = AppendMessagesList(dst[:0], msgs, false) }},
		{"scanner, plain body", 0, func() { s := scan(plain); s.queueMessage(); s.release() }},
		{"scanner, entities and CDATA", 0, func() { s := scan(resolved); s.queueMessage(); s.release() }},
		{"DecodeQueueMessage, plain body", 1, func() { DecodeQueueMessage(plain) }},
		{"DecodeQueueMessage, entities and CDATA", 1, func() { DecodeQueueMessage(resolved) }},
	} {
		c.call() // grow dst, fill the scanner pool
		if n := testing.AllocsPerRun(200, c.call); n > c.ceiling {
			t.Errorf("%s allocates %.0f times, ceiling %.0f", c.name, n, c.ceiling)
		}
	}
	if got, err := DecodeQueueMessage(resolved); err != nil || string(got) != "hello" {
		t.Errorf("DecodeQueueMessage(resolved) = %q, %v", got, err)
	}
}
