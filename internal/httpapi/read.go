package httpapi

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The strict reader fills the wire structs from received bytes with
// encoding/json's verdict and result (FuzzJSONDecode holds it to
// json.Unmarshal): names match as encoding/json folds them; unknown
// members are validated, then skipped; null leaves a field as it is but
// clears a pointer, map or slice; a repeated member reads into what the
// earlier one left; a value a field cannot hold is an error, yet the read
// goes on, so a later syntax error is the one reported; numbers are
// checked against RFC 8259's grammar, then parsed by strconv.ParseFloat;
// times go through time.Time.UnmarshalJSON on the raw value; invalid
// UTF-8 and unpaired surrogates become U+FFFD. It copies every value it
// stores, so the body buffer may be reused once the read returns.

// errSyntax marks a body that is not one well-formed JSON value.
var errSyntax = errors.New("malformed JSON")

const maxDepth = 10000 // encoding/json's nesting limit

// reader reads one JSON value from data. A syntax error moves pos to the
// end, so every loop stops at the next separator it expects.
type reader struct {
	data, key, buf []byte // key: the current member name; buf: holds unescaped strings
	pos, depth     int
	err            error // a syntax error, else the first value a field could not hold
	stopped        bool  // by a syntax error
}

// readJSON reads data into v, a pointer to a wire struct the reader
// knows, and reports a syntax error before a value error.
func readJSON(data []byte, v any) error {
	r := reader{data: data}
	if r.into(v); r.ws() != 0 || r.pos < len(r.data) {
		r.fail() // trailing data
	}
	return r.err
}

// into reads the next value into what p points to. A struct names each
// field as its json tag does (TestReaderFollowsTheTags pins them).
func (r *reader) into(p any) {
	switch p := p.(type) {
	case *RequestJSON:
		r.fields("service", &p.Service, "client", &p.Client, "class", &p.Class, "spec", &p.Spec,
			"start", &p.Start, "end", &p.End, "budget", &p.Budget,
			"accept_degradation", &p.AcceptDegradation, "accept_termination", &p.AcceptTermination,
			"promotion_opt_in", &p.PromotionOptIn)
	case *ActionJSON:
		r.fields("id", &p.ID, "reason", &p.Reason, "spec", &p.Spec)
	case *BestEffortJSON:
		r.fields("client", &p.Client, "cpu", &p.CPU, "memory_mb", &p.MemoryMB, "disk_gb", &p.DiskGB,
			"release", &p.Release)
	case *OfferJSON:
		r.fields("sla_id", &p.SLAID, "state", &p.State, "class", &p.Class, "price", &p.Price,
			"allocated", &p.Allocated, "expires", &p.Expires, "compensated", &p.Compensated,
			"service_key", &p.ServiceKey, "domain", &p.Domain)
	case *CapacityJSON:
		r.fields("cpu", &p.CPU, "memory_mb", &p.MemoryMB, "disk_gb", &p.DiskGB, "bandwidth_mbps", &p.BandwidthMbps)
	case *AckJSON:
		r.fields("ok", &p.OK, "detail", &p.Detail)
	case *SpecJSON:
		r.fields("params", &p.Params, "source_ip", &p.SourceIP, "dest_ip", &p.DestIP, "max_loss_pct", &p.MaxLossPct)
	case **SpecJSON:
		readPointer(r, p)
	case **float64:
		readPointer(r, p)
	case *map[string]ParamJSON:
		r.params(p)
	case *[]float64:
		r.floats(p)
	case *float64:
		r.float(p)
	case *string:
		if r.ws() == '"' {
			*p = string(r.str())
		} else {
			r.other("string")
		}
	case *bool:
		if c := r.ws(); c == 't' || c == 'f' {
			*p = r.literal() == 't'
		} else {
			r.other("boolean")
		}
	case *time.Time:
		// The raw value, whatever it is, as encoding/json hands it over.
		r.ws()
		start := r.pos
		r.skip()
		if err := p.UnmarshalJSON(r.data[start:r.pos]); err != nil {
			r.bad(err)
		}
	default:
		panic("httpapi: the reader has no rule for this type")
	}
}

// fields reads an object into a struct: members alternates a field's
// json name and a pointer to it. A null leaves the struct as it is.
func (r *reader) fields(members ...any) {
	if !r.begin('{', "object") {
		return
	}
	for n := 0; r.member(n); n++ {
		i := 0
		for i < len(members) && !r.is(members[i].(string)) {
			i += 2
		}
		if i < len(members) {
			r.into(members[i+1])
		} else {
			r.skip()
		}
	}
}

// readPointer reads into *p, allocating it when nil; a null clears it.
func readPointer[T any](r *reader, p **T) {
	if r.null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	r.into(*p)
}

// params reads the parameter map: like encoding/json it adds to a map an
// earlier member made, and each entry starts from the zero parameter.
func (r *reader) params(m *map[string]ParamJSON) {
	if r.null() {
		*m = nil
		return
	}
	if !r.begin('{', "object") {
		return
	}
	if *m == nil {
		*m = make(map[string]ParamJSON)
	}
	for n := 0; r.member(n); n++ {
		name := paramName(r.key)
		var p ParamJSON
		r.fields("exact", &p.Exact, "min", &p.Min, "max", &p.Max, "values", &p.Values)
		(*m)[name] = p
	}
}

// paramName copies a parameter name, sharing a dimension's own string.
func paramName(key []byte) string {
	if k, ok := kindNamed(string(key)); ok {
		return k.String()
	}
	return string(key)
}

// floats reads a list the way encoding/json fills a slice: into the
// elements an earlier member left, growing it as needed, trimmed to the
// elements read; an empty list is an empty slice, not nil.
func (r *reader) floats(dst *[]float64) {
	if r.null() {
		*dst = nil
		return
	}
	if !r.begin('[', "array") {
		return
	}
	s, i := *dst, 0
	for ; r.next(i, ']'); i++ {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			s = append(s, 0)
		}
		r.float(&s[i])
	}
	if i == 0 {
		s = []float64{}
	}
	*dst = s[:i]
}

func (r *reader) float(dst *float64) {
	if c := r.ws(); c != '-' && (c < '0' || c > '9') {
		r.other("number")
		return
	}
	if v, err := strconv.ParseFloat(string(r.number()), 64); err != nil {
		r.bad(err) // out of range
	} else {
		*dst = v
	}
}

// null reads a null if one is next.
func (r *reader) null() bool { return r.ws() == 'n' && r.literal() == 'n' }

// other reads the value that is not a want: a null leaves the field as
// it is, anything else is a value error.
func (r *reader) other(want string) {
	if !r.null() {
		r.bad(fmt.Errorf("the value at offset %d is not a %s", r.pos, want))
		r.skip()
	}
}

// bad records a value error; the read goes on.
func (r *reader) bad(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("member %q: %w", r.key, err)
	}
}

// ws skips white space and returns the next byte, 0 at the end.
func (r *reader) ws() byte {
	for ; r.pos < len(r.data); r.pos++ {
		if c := r.data[r.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// fail records a syntax error at pos and stops the read.
func (r *reader) fail() {
	if !r.stopped && r.pos >= len(r.data) {
		r.err = fmt.Errorf("%w: unexpected end of input", errSyntax)
	} else if !r.stopped {
		r.err = fmt.Errorf("%w: invalid character %q at offset %d", errSyntax, r.data[r.pos], r.pos)
	}
	r.pos, r.stopped = len(r.data), true
}

// skip reads any value, checking its syntax.
func (r *reader) skip() {
	switch c := r.ws(); {
	case c == '{' && r.begin('{', ""):
		for n := 0; r.member(n); n++ {
			r.skip()
		}
	case c == '[' && r.begin('[', ""):
		for n := 0; r.next(n, ']'); n++ {
			r.skip()
		}
	case c == '"':
		r.str()
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	case c != '{' && c != '[':
		r.literal()
	}
}

// begin opens the object or array (open is { or [) the next value must
// be, or reads what else it is with other.
func (r *reader) begin(open byte, want string) bool {
	if r.ws() != open {
		r.other(want)
		return false
	}
	if r.depth++; r.depth > maxDepth {
		r.fail()
		return false
	}
	r.pos++
	return true
}

// next reads the comma before the open container's next entry, or its
// closing byte and reports false; n counts the entries read so far.
func (r *reader) next(n int, closing byte) bool {
	switch c := r.ws(); {
	case c == closing:
		r.pos, r.depth = r.pos+1, r.depth-1
		return false
	case n > 0 && c == ',':
		r.pos++
	case n > 0:
		r.fail()
	}
	return !r.stopped
}

// member reads up to the value of the open object's next member, leaving
// its name in r.key, or reads the closing brace and reports false.
func (r *reader) member(n int) bool {
	if !r.next(n, '}') {
		return false
	}
	if r.ws() == '"' {
		if r.key = r.str(); r.ws() == ':' {
			r.pos++
			return true
		}
	}
	r.fail()
	return false
}

// is reports whether the member name matches a field name (ASCII) as
// encoding/json matches them: equal once ASCII letters are upper-cased
// and every other rune is folded to the least rune of its orbit.
func (r *reader) is(name string) bool {
	i := 0
	for _, c := range string(r.key) {
		if c < utf8.RuneSelf {
			c = unicode.ToUpper(c)
		}
		for f := c; c >= utf8.RuneSelf; c = f {
			if f = unicode.SimpleFold(c); f <= c { // wrapped round to the least
				c = f
				break
			}
		}
		if i == len(name) || c != unicode.ToUpper(rune(name[i])) {
			return false
		}
		i++
	}
	return i == len(name)
}

// literal reads true, false or null and returns its first byte.
func (r *reader) literal() byte {
	for _, lit := range [...]string{"true", "false", "null"} {
		if rest := r.data[r.pos:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
			r.pos += len(lit)
			return lit[0]
		}
	}
	r.fail()
	return 0
}

// number reads a number token, checked against RFC 8259's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *reader) number() []byte {
	start := r.pos
	r.accept("-")
	ok := r.accept("0") || r.digits()
	if ok && r.accept(".") {
		ok = r.digits()
	}
	if ok && r.accept("eE") {
		r.accept("+-")
		ok = r.digits()
	}
	if !ok {
		r.fail()
		return nil
	}
	return r.data[start:r.pos]
}

// accept reads one byte of set, if one is next.
func (r *reader) accept(set string) bool {
	ok := r.pos < len(r.data) && strings.IndexByte(set, r.data[r.pos]) >= 0
	if ok {
		r.pos++
	}
	return ok
}

// digits reads a run of digits and reports whether there was one.
func (r *reader) digits() bool {
	start := r.pos
	for r.accept("0123456789") {
	}
	return r.pos > start
}

// str reads a string and returns its unescaped bytes: a slice of data
// while it has no escape and is valid UTF-8, otherwise of r.buf, which
// the next string may overwrite.
func (r *reader) str() []byte {
	r.pos++
	start, b := r.pos, []byte(nil)
	for r.pos < len(r.data) {
		c, size := rune(r.data[r.pos]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRune(r.data[r.pos:])
		}
		switch {
		case c == '"':
			r.pos++
			if b == nil {
				return r.data[start : r.pos-1]
			}
			r.buf = b
			return b
		case c < ' ':
			r.fail()
			return nil
		case c != '\\' && (c != utf8.RuneError || size > 1):
			if b != nil {
				b = append(b, r.data[r.pos:r.pos+size]...)
			}
			r.pos += size
			continue
		case b == nil:
			b = append(r.buf[:0], r.data[start:r.pos]...)
		}
		if c == utf8.RuneError { // a byte that is not UTF-8
			b = utf8.AppendRune(b, c)
			r.pos++
			continue
		}
		switch r.pos++; {
		case r.pos < len(r.data) && unescape[r.data[r.pos]] != 0:
			b = append(b, unescape[r.data[r.pos]])
			r.pos++
		case r.accept("u") && hex4(r.data[r.pos:]) >= 0:
			c, r.pos = hex4(r.data[r.pos:]), r.pos+4
			if utf16.IsSurrogate(c) {
				second := rune(-1)
				if rest := r.data[r.pos:]; len(rest) > 1 && rest[0] == '\\' && rest[1] == 'u' {
					second = hex4(rest[2:])
				}
				if c = utf16.DecodeRune(c, second); c != unicode.ReplacementChar {
					r.pos += 6
				}
			}
			b = utf8.AppendRune(b, c)
		default:
			r.fail()
			return nil
		}
	}
	r.fail()
	return nil
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes the four hex digits s begins with, -1 when it does not.
func hex4(s []byte) rune {
	if v, err := strconv.ParseUint(string(s[:min(4, len(s))]), 16, 32); err == nil && len(s) >= 4 {
		return rune(v)
	}
	return -1
}
