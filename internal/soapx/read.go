package soapx

import (
	"bytes"
	"encoding"
	"encoding/xml"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// bodyReader reads one SOAP envelope in a single streaming pass:
// openEnvelope stops on the body element (the first element inside the
// first Body, whose local name picks the handler) and decode reads the
// payload by its type's plan, then the rest of the envelope.
//
// Its tokenizer follows encoding/xml's strict Decoder on a subset:
// elements, attributes, xmlns name space prefixes, an <?xml …?>
// declaration ahead of the root, comments, the five predefined entities,
// character references and \r\n → \n. A DOCTYPE or other <! directive,
// CDATA, any other processing instruction and a non-ASCII name are
// refused (errUnsupported), never misread. Names and plain text are
// sub-slices of data and decode copies out what it stores, so data may
// be reused once the reader is done.
type bodyReader struct {
	data, buf []byte    // buf holds rewritten text; it only grows, so its slices stay valid
	pos       int       // read position in data
	err       error     // the first syntax error or refusal: the envelope is bad
	name      []byte    // raw qualified name of the last start or end tag
	attrs     []attr    // the last start tag's attributes
	text      []byte    // the last run of character data, entities replaced
	empty     bool      // the last start tag was <name/>: next returns its end
	open      [][]byte  // raw names of the open elements, outermost first
	ns        []binding // xmlns declarations in scope, innermost last
	body      []byte    // the body element's local name
	done      bool      // decode or finish ran
	attrArr   [2]attr   // backing for attrs, open and ns: enough for every wire message
	openArr   [8][]byte
	nsArr     [2]binding
}

type attr struct{ name, value []byte }

type binding struct {
	prefix, uri []byte
	depth       int // len(open) where declared
}

// The tokens next returns; 0 means r.err is set.
const (
	tokStart = iota + 1
	tokEnd
	tokText
)

var (
	errUnsupported = errors.New("outside the soapx subset")
	xmlURL         = []byte("http://www.w3.org/XML/1998/namespace")
	entities       = map[string]byte{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}
)

// openEnvelope resets r to read data, keeping buf's capacity, and reads
// up to the body element, skipping Envelope's other children such as
// soap:Header.
func (r *bodyReader) openEnvelope(data []byte) error {
	*r = bodyReader{data: data, buf: r.buf[:0]}
	r.attrs, r.open, r.ns = r.attrArr[:0], r.openArr[:0], r.nsArr[:0]
	if r.nextChild() && !r.is("Envelope") {
		_, local := split(r.name)
		r.stop(fmt.Errorf("root is <%s> in name space %q", local, r.elemSpace()))
	}
	for r.err == nil && r.nextChild() && !r.is("Body") {
		r.skip()
	}
	if r.err == nil && (!r.is("Body") || !r.nextChild()) {
		r.stop(errors.New("empty body"))
	}
	_, r.body = split(r.name)
	if r.err != nil {
		return fmt.Errorf("soapx: bad envelope: %w", r.err)
	}
	return nil
}

// is reports whether the element just started is local in the envelope
// name space.
func (r *bodyReader) is(local string) bool {
	_, l := split(r.name)
	return string(l) == local && string(r.elemSpace()) == EnvelopeNS
}

// nextChild reads up to the next element start inside the current
// element, reporting false when it ends first.
func (r *bodyReader) nextChild() bool {
	tok := r.next()
	for tok == tokText {
		tok = r.next()
	}
	return tok == tokStart
}

// decode decodes the body element into v and then reads the envelope to
// its end, so a nil error means the whole document was well-formed. It
// is the decode function a HandlerFunc receives. After a payload of the
// wrong shape the rest is still read, to tell it from a bad envelope.
func (r *bodyReader) decode(v any) error {
	if r.done {
		return errors.New("soapx: body decoded twice")
	}
	rv := reflect.ValueOf(v)
	p, err := planFor(reflect.TypeOf(v))
	if err == nil && rv.IsNil() {
		err = errors.New("soapx: decode into a nil pointer")
	} else if err == nil {
		err = r.decodeStruct(p, rv.Elem())
	}
	if bad := r.finish(); err == nil {
		return bad
	}
	return err
}

// finish reads the rest of the envelope, once, and returns the bad
// envelope error, if any.
func (r *bodyReader) finish() error {
	r.done = true
	for r.err == nil && len(r.open) > 0 {
		r.next()
	}
	if r.err != nil {
		return fmt.Errorf("soapx: bad envelope: %w", r.err)
	}
	return nil
}

func (r *bodyReader) unmarshal(data []byte, v any) error {
	if err := r.openEnvelope(data); err != nil {
		return err
	}
	var f *Fault
	if string(r.body) == "Fault" {
		f = new(Fault)
		v = f
	}
	err := r.decode(v)
	switch {
	case r.err != nil:
		return r.finish()
	case err != nil && f != nil:
		return fmt.Errorf("soapx: bad fault: %w", err)
	case err != nil:
		return fmt.Errorf("soapx: unmarshal body: %w", err)
	case f != nil:
		return f
	}
	return nil
}

// stop records err unless an error is recorded already.
func (r *bodyReader) stop(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *bodyReader) syntax(msg string) {
	r.stop(&xml.SyntaxError{Msg: msg, Line: 1 + bytes.Count(r.data[:min(r.pos, len(r.data))], []byte{'\n'})})
}

func (r *bodyReader) refuse(what string) { r.stop(fmt.Errorf("%w: %s", errUnsupported, what)) }

// peek returns the byte at r.pos, 0 past the end of data.
func (r *bodyReader) peek() byte {
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// next returns the next start tag, end tag or run of character data,
// reading past comments and the XML declaration. The end of data is an
// error: soapx never reads past the root element's end.
func (r *bodyReader) next() int {
	if r.empty && r.err == nil {
		r.empty = false
		r.pop()
		return tokEnd
	}
	for r.err == nil {
		var after byte // the byte after a '<'
		if r.pos+1 < len(r.data) {
			after = r.data[r.pos+1]
		}
		switch {
		case r.pos >= len(r.data):
			r.syntax("unexpected EOF")
		case r.peek() != '<':
			if r.text = r.readText('<'); r.err == nil {
				return tokText
			}
		case after == '/':
			return r.endTag()
		case after == '?':
			r.declaration()
		case after == '!':
			r.comment()
		default:
			return r.startTag()
		}
	}
	return 0
}

// skip reads through the end of the element next just started.
func (r *bodyReader) skip() {
	for depth := len(r.open); r.err == nil && len(r.open) >= depth; {
		r.next()
	}
}

// qname reads a name at r.pos, nil if there is none. A qualified one, an
// element's or attribute's, holds at most one colon.
func (r *bodyReader) qname(what string, qualified bool) []byte {
	i := r.pos
	for i < len(r.data) && isNameByte(r.data[i]) {
		i++
	}
	name := r.data[r.pos:i]
	switch {
	case i < len(r.data) && r.data[i] >= utf8.RuneSelf:
		r.refuse("name with a non-ASCII character")
	case len(name) == 0 || name[0] < ':' || qualified && bytes.Count(name, []byte{':'}) > 1: // name[0] < ':': a digit, - or .
		r.syntax("expected " + what)
	default:
		r.pos = i
		return name
	}
	return nil
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// split returns a qualified name's prefix and local part as encoding/xml
// does: a colon with nothing on one side is part of the local name.
func split(name []byte) (prefix, local []byte) {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[:i], name[i+1:]
	}
	return nil, name
}

func (r *bodyReader) space() {
	for c := r.peek(); c == ' ' || c == '\r' || c == '\n' || c == '\t'; c = r.peek() {
		r.pos++
	}
}

func (r *bodyReader) startTag() int {
	r.pos++
	r.name, r.attrs = r.qname("element name after <", true), r.attrs[:0]
	for r.space(); r.err == nil && r.peek() != '>' && r.peek() != '/'; r.space() {
		name := r.qname("attribute name in element", true)
		if r.space(); r.peek() != '=' {
			r.syntax("attribute name without = in element")
		}
		r.pos++
		if r.space(); r.err == nil && (r.peek() == '"' || r.peek() == '\'') {
			r.pos++
			r.attrs = append(r.attrs, attr{name, r.readText(r.data[r.pos-1])})
		} else {
			r.syntax("unquoted or missing attribute value in element")
		}
	}
	if r.empty = r.peek() == '/'; r.empty {
		r.pos++ // no space between / and >
	}
	if r.peek() != '>' {
		r.syntax("expected /> in element")
	}
	if r.pos++; r.err != nil {
		return 0
	}
	r.open = append(r.open, r.name)
	for _, a := range r.attrs { // xmlns:prefix="uri" and xmlns="uri"
		if p, l := split(a.name); string(p) == "xmlns" {
			r.ns = append(r.ns, binding{l, a.value, len(r.open)})
		} else if p == nil && string(l) == "xmlns" {
			r.ns = append(r.ns, binding{nil, a.value, len(r.open)})
		}
	}
	return tokStart
}

func (r *bodyReader) endTag() int {
	r.pos += 2
	name := r.qname("element name after </", true)
	if r.space(); r.peek() != '>' {
		r.syntax("invalid characters between </" + string(name) + " and >")
	}
	if r.pos++; r.err == nil && (len(r.open) == 0 || !bytes.Equal(r.open[len(r.open)-1], name)) {
		r.syntax("unexpected end element </" + string(name) + ">")
	}
	if r.err != nil {
		return 0
	}
	r.name = name
	r.pop()
	return tokEnd
}

// pop closes the innermost element and its name space declarations.
func (r *bodyReader) pop() {
	r.open = r.open[:len(r.open)-1]
	for len(r.ns) > 0 && r.ns[len(r.ns)-1].depth > len(r.open) {
		r.ns = r.ns[:len(r.ns)-1]
	}
}

// elemSpace returns the name space of the last start tag's element as
// encoding/xml translates it: an undeclared prefix stands for itself.
func (r *bodyReader) elemSpace() []byte {
	switch prefix, local := split(r.name); {
	case string(prefix) == "xmlns":
		return prefix
	case string(prefix) == "xml":
		return xmlURL
	case prefix == nil && string(local) == "xmlns":
		return nil
	default:
		for i := len(r.ns) - 1; i >= 0; i-- {
			if bytes.Equal(r.ns[i].prefix, prefix) {
				return r.ns[i].uri
			}
		}
		return prefix
	}
}

// declaration reads an <?xml …?> declaration ahead of the root element,
// refusing, as encoding/xml does, one naming another version or encoding.
func (r *bodyReader) declaration() {
	r.pos += 2
	if target := r.qname("target name after <?", false); r.err == nil && (string(target) != "xml" || len(r.open) > 0) {
		r.refuse("processing instruction <?" + string(target))
	}
	if r.space(); r.err != nil {
		return
	}
	end := bytes.Index(r.data[r.pos:], []byte("?>"))
	if end < 0 {
		r.syntax("unexpected EOF")
		return
	}
	decl := string(r.data[r.pos : r.pos+end])
	r.pos += end + 2
	if v, e := procInst("version=", decl), procInst("encoding=", decl); v != "" && v != "1.0" ||
		e != "" && !strings.EqualFold(e, "utf-8") {
		r.syntax("unsupported version or encoding in <?xml " + decl + "?>")
	}
}

// procInst returns the quoted value after param ("name=") in an XML
// declaration, found by encoding/xml's own rules.
func procInst(param, decl string) string {
	for i := 0; ; i++ {
		k := strings.Index(decl[i:], param)
		if k < 0 || i+k+len(param) >= len(decl) {
			return ""
		}
		if i += k + len(param); decl[i] == '"' || decl[i] == '\'' {
			if j := strings.IndexByte(decl[i+1:], decl[i]); j >= 0 {
				return decl[i+1 : i+1+j]
			}
			return ""
		}
	}
}

// comment reads a <!-- comment -->; every other <! construct is refused.
func (r *bodyReader) comment() {
	r.pos += 2
	switch rest := r.data[r.pos:]; {
	case r.peek() == '[':
		r.refuse("CDATA section")
	case r.peek() != '-':
		r.refuse("<! directive")
	case !bytes.HasPrefix(rest, []byte("--")):
		r.syntax("invalid sequence <!- not part of <!--")
	default: // the first -- ends it, and must be followed by >
		if end := bytes.Index(rest[2:], []byte("--")); end < 0 || !bytes.HasPrefix(rest[2+end+2:], []byte(">")) {
			r.syntax(`invalid sequence "--" not allowed in comments`)
		} else {
			r.pos += 2 + end + 3
		}
	}
}

// readText reads character data up to term: the next '<', or an
// attribute value's closing quote. It returns a sub-slice of data unless
// an entity or a carriage return was rewritten into r.buf.
func (r *bodyReader) readText(term byte) []byte {
	raw := r.data[r.pos:]
	if n := bytes.IndexByte(raw, term); n >= 0 {
		raw = raw[:n]
	} else if term != '<' {
		r.syntax("unexpected EOF")
	}
	if r.pos += len(raw); term != '<' {
		r.pos++
	}
	switch {
	case term == '<' && bytes.Contains(raw, []byte("]]>")):
		r.syntax("unescaped ]]> not in CDATA section")
	case term != '<' && bytes.IndexByte(raw, '<') >= 0:
		r.syntax("unescaped < inside quoted string")
	case bytes.IndexByte(raw, '&') < 0 && bytes.IndexByte(raw, '\r') < 0:
		r.check(raw)
		return raw
	}
	out := r.buf
	for i := 0; i < len(raw) && r.err == nil; i++ {
		switch c := raw[i]; {
		case c == '&':
			out, i = r.entity(out, raw, i)
		case c == '\r':
			out = append(out, '\n')
		case c != '\n' || i == 0 || raw[i-1] != '\r': // \r\n is one \n
			out = append(out, c)
		}
	}
	text := out[len(r.buf):]
	r.buf = out
	r.check(text)
	return text
}

// entity appends the character the reference at raw[i] names and
// returns the index of its ';'.
func (r *bodyReader) entity(out, raw []byte, i int) ([]byte, int) {
	end := i + bytes.IndexByte(raw[i:], ';')
	if end < i {
		end = len(raw)
	}
	ref := string(raw[i+1 : end])
	if c, ok := entities[ref]; ok && end < len(raw) {
		return append(out, c), end
	}
	digits, number := strings.CutPrefix(ref, "#")
	base := 10
	if hex, ok := strings.CutPrefix(digits, "x"); ok && number {
		base, digits = 16, hex
	}
	n, err := strconv.ParseUint(digits, base, 64)
	if !number || err != nil || n > unicode.MaxRune || end == len(raw) {
		r.syntax("invalid character entity &" + ref)
	}
	return utf8.AppendRune(out, rune(n)), end
}

// check refuses text encoding/xml refuses: invalid UTF-8 or a character
// outside XML's Char production.
func (r *bodyReader) check(text []byte) {
	if !utf8.Valid(text) || bytes.ContainsFunc(text, func(c rune) bool {
		return c < 0x20 && c != '\t' && c != '\n' && c != '\r' || c > 0xD7FF && c < 0xE000 || c > 0xFFFD && c < 0x10000
	}) {
		r.syntax("invalid UTF-8 or illegal character code")
	}
}

// A plan says how to decode one struct type. It is read once from the
// type's xml struct tags and cached, and covers the subset the wire types
// use — element names and a>b paths, ,attr, ,chardata, ,omitempty,
// XMLName, embedded structs, and string, bool, int, float64, struct,
// *struct and []struct fields — decoded by encoding/xml's Unmarshal
// rules. Any other tag or field type leaves the type without a plan.
type plan struct {
	name, space string  // the XMLName tag; "" checks nothing
	xmlName     []int   // index of the XMLName field, nil if none
	attrs       []field // ,attr fields
	text        *field  // the ,chardata field
	elems       []field // element fields
}

type field struct {
	path []string // the element's, parents first; an attribute's name
	idx  []int    // index in the struct
	plan *plan    // an element's struct type; nil for a scalar
}

var (
	plans        sync.Map // reflect.Type → *plan
	scalar       = new(plan)
	nameType     = reflect.TypeFor[xml.Name]()
	unmarshalers = []reflect.Type{reflect.TypeFor[xml.Unmarshaler](),
		reflect.TypeFor[xml.UnmarshalerAttr](), reflect.TypeFor[encoding.TextUnmarshaler]()}
)

// planFor returns the plan of the struct type *T t points to.
func planFor(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	if t == nil || t.Kind() != reflect.Pointer {
		return nil, fmt.Errorf("soapx: decode into %v, not a pointer", t)
	}
	p, err := buildPlan(t.Elem(), map[reflect.Type]bool{})
	if err != nil {
		return nil, fmt.Errorf("soapx: no decode plan for %v: %w", t, err)
	}
	plans.Store(t, p)
	return p, nil
}

// buildPlan builds struct type t's plan. building holds the types around
// it, so a recursive type, which no wire type is, is refused rather than
// decoded to any depth.
func buildPlan(t reflect.Type, building map[reflect.Type]bool) (*plan, error) {
	if t.Kind() != reflect.Struct || t == nameType || building[t] || decodesItself(t) {
		return nil, fmt.Errorf("type %v", t)
	}
	building[t] = true
	defer delete(building, t)
	p := &plan{}
	return p, p.add(t, nil, building)
}

func decodesItself(t reflect.Type) bool {
	return slices.ContainsFunc(unmarshalers, func(u reflect.Type) bool {
		return t.Implements(u) || reflect.PointerTo(t).Implements(u)
	})
}

// add adds the fields of t, found at index path at.
func (p *plan) add(t reflect.Type, at []int, building map[reflect.Type]bool) error {
	for i := range t.NumField() {
		f := t.Field(i)
		tag, idx := f.Tag.Get("xml"), append(slices.Clip(at), i)
		var err error
		switch {
		case !f.IsExported() && !f.Anonymous || tag == "-":
		case !f.Anonymous:
			err = p.addField(f, idx, tag, building)
		case f.Type.Kind() != reflect.Struct || tag != "" || decodesItself(f.Type):
			err = errors.New("embedded non-struct or tagged struct")
		default:
			err = p.add(f.Type, idx, building)
		}
		if err != nil {
			return fmt.Errorf("field %s: %w", f.Name, err)
		}
	}
	return nil
}

func (p *plan) addField(f reflect.StructField, idx []int, tag string, building map[reflect.Type]bool) (err error) {
	space, tag, ok := strings.Cut(tag, " ")
	if !ok {
		space, tag = "", space
	}
	name, flags, _ := strings.Cut(tag, ",")
	attr, chardata := false, flags == "chardata"
	for _, flag := range strings.Split(flags, ",") {
		if attr = attr || flag == "attr"; flag != "" && flag != "omitempty" && flag != "attr" && !chardata {
			return fmt.Errorf("tag flag %q", flag)
		}
	}
	switch {
	case f.Name == "XMLName" && (f.Type != nameType || flags != "" || space != "" && name == "" || p.xmlName != nil):
		return errors.New("bad XMLName")
	case f.Name == "XMLName":
		p.name, p.space, p.xmlName = name, space, idx
		return nil
	case space != "" || name == "" && !chardata || chardata && name != "" || attr && strings.Contains(name, ">"):
		return fmt.Errorf("tag %q", f.Tag.Get("xml"))
	}
	fl := field{path: strings.Split(name, ">"), idx: idx}
	switch k := f.Type.Kind(); {
	case k == reflect.String || k == reflect.Bool || k == reflect.Int || k == reflect.Float64:
		if decodesItself(f.Type) {
			err = fmt.Errorf("type %v", f.Type)
		}
	case attr || chardata:
		err = fmt.Errorf("type %v", f.Type)
	case k == reflect.Pointer || k == reflect.Slice:
		fl.plan, err = buildPlan(f.Type.Elem(), building)
	default:
		fl.plan, err = buildPlan(f.Type, building)
	}
	switch {
	case err != nil:
	case chardata && p.text != nil:
		err = errors.New("second ,chardata field")
	case chardata:
		p.text = &fl
	case attr && slices.ContainsFunc(p.attrs, func(a field) bool { return a.path[0] == name }):
		err = fmt.Errorf("attribute %q twice", name)
	case attr:
		p.attrs = append(p.attrs, fl)
	case slices.Contains(fl.path, "") || slices.ContainsFunc(p.elems, func(e field) bool {
		n := min(len(e.path), len(fl.path)) // one path a prefix of the other
		return slices.Equal(e.path[:n], fl.path[:n])
	}):
		err = fmt.Errorf("element %q empty or claimed twice", name)
	default:
		p.elems = append(p.elems, fl)
	}
	return err
}

// decodeStruct decodes the element whose start tag r just read into v by
// plan p, through its end tag.
func (r *bodyReader) decodeStruct(p *plan, v reflect.Value) error {
	if p.xmlName != nil {
		_, local := split(r.name)
		space := r.elemSpace()
		if p.name != "" && p.name != string(local) || p.space != "" && p.space != string(space) {
			return fmt.Errorf("expected element <%s> in name space %q but have <%s> in %q", p.name, p.space, local, space)
		}
		n := at(v, p.xmlName)
		n.Field(0).SetString(intern(space, p.space))
		n.Field(1).SetString(intern(local, p.name))
	}
	for _, a := range r.attrs {
		_, local := split(a.name)
		for _, f := range p.attrs {
			if f.path[0] != string(local) {
				continue
			}
			if err := setScalar(at(v, f.idx), a.value); err != nil {
				return err
			}
		}
	}
	text, err := r.content(p, v, nil, p.text != nil)
	if err == nil && p.text != nil {
		err = setScalar(at(v, p.text.idx), text)
	}
	return err
}

// content reads the content of the element just started through its end
// tag: each child at path parents below v's element decodes into the
// field of p it names, or is skipped. With keep it gathers the element's
// own text, holding a single run without copying it.
func (r *bodyReader) content(p *plan, v reflect.Value, parents []string, keep bool) ([]byte, error) {
	var text []byte
	owned := false
	for {
		switch r.next() {
		case 0:
			return nil, r.err
		case tokEnd:
			return text, nil
		case tokStart:
			if err := r.child(p, v, parents); err != nil {
				return nil, err
			}
		case tokText:
			switch {
			case !keep:
			case text == nil:
				text = r.text
			case !owned:
				text, owned = append(slices.Clip(text), r.text...), true
			default:
				text = append(text, r.text...)
			}
		}
	}
}

// child decodes the element just started, at path parents below v's
// element, into the field of p it names, or skips it.
func (r *bodyReader) child(p *plan, v reflect.Value, parents []string) error {
	_, local := split(r.name)
	depth := len(parents)
	for _, f := range p.elems {
		switch {
		case len(f.path) <= depth || f.path[depth] != string(local) || !slices.Equal(f.path[:depth], parents):
			continue
		case len(f.path) > depth+1: // a parent on f's path
			_, err := r.content(p, v, f.path[:depth+1], false)
			return err
		}
		fv := at(v, f.idx)
		switch fv.Kind() {
		case reflect.Pointer:
			if fv.IsNil() {
				fv.Set(reflect.New(fv.Type().Elem()))
			}
			fv = fv.Elem()
		case reflect.Slice:
			fv.Grow(1)
			fv.SetLen(fv.Len() + 1)
			fv = fv.Index(fv.Len() - 1)
		}
		if f.plan != nil {
			return r.decodeStruct(f.plan, fv)
		}
		text, err := r.content(scalar, fv, nil, true)
		if err == nil {
			err = setScalar(fv, text)
		}
		return err
	}
	r.skip()
	return r.err
}

// at returns the field of v at index path idx.
func at(v reflect.Value, idx []int) reflect.Value {
	for _, i := range idx {
		v = v.Field(i)
	}
	return v
}

// intern returns b as a string, without allocating when it is want or
// the envelope name space.
func intern(b []byte, want string) string {
	switch string(b) {
	case want:
		return want
	case EnvelopeNS:
		return EnvelopeNS
	}
	return string(b)
}

// setScalar stores text in v by encoding/xml's rules: a string as it
// stands, empty text as zero, anything else trimmed and parsed.
func setScalar(v reflect.Value, text []byte) error {
	if v.Kind() == reflect.String {
		v.SetString(string(text))
		return nil
	}
	var err error
	switch s := string(bytes.TrimSpace(text)); {
	case len(text) == 0:
		v.SetZero()
	case v.Kind() == reflect.Bool:
		var b bool
		if b, err = strconv.ParseBool(s); err == nil {
			v.SetBool(b)
		}
	case v.Kind() == reflect.Int:
		var n int64
		if n, err = strconv.ParseInt(s, 10, strconv.IntSize); err == nil {
			v.SetInt(n)
		}
	default:
		var x float64
		if x, err = strconv.ParseFloat(s, 64); err == nil {
			v.SetFloat(x)
		}
	}
	return err
}
