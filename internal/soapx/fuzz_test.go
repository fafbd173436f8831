package soapx

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"

	"gqosm/internal/sla"
	"gqosm/internal/xmlmsg"
)

// Two earlier decodes are kept here as oracles. The three-pass decode
// unmarshals the whole envelope to copy out Body's inner XML, tokenises
// that copy to find the body element, and unmarshals the copy a third
// time into the payload. The one-pass decode reads the envelope once with
// an xml.Decoder and decodes the payload in place with DecodeElement: it
// is encoding/xml's own verdict on everything bodyReader reads, so
// FuzzSOAPEnvelope and FuzzSOAPDecode hold the reader to it exactly, apart
// from the constructs outside the subset (see OutOfSubset).

type oracleEnvelope struct {
	XMLName xml.Name   `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Body    oracleBody `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

type oracleBody struct {
	Inner []byte `xml:",innerxml"`
}

func oracleBodyElement(data []byte) (string, []byte, error) {
	var env oracleEnvelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return "", nil, fmt.Errorf("soapx: bad envelope: %w", err)
	}
	dec := xml.NewDecoder(bytes.NewReader(env.Body.Inner))
	for {
		tok, err := dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return "", nil, errors.New("soapx: empty body")
			}
			return "", nil, fmt.Errorf("soapx: bad body: %w", err)
		}
		if start, ok := tok.(xml.StartElement); ok {
			return start.Name.Local, env.Body.Inner, nil
		}
	}
}

func oracleUnmarshal(data []byte, v any) error {
	name, inner, err := oracleBodyElement(data)
	if err != nil {
		return err
	}
	if name == "Fault" {
		var f Fault
		if err := xml.Unmarshal(inner, &f); err != nil {
			return fmt.Errorf("soapx: bad fault: %w", err)
		}
		return &f
	}
	if err := xml.Unmarshal(inner, v); err != nil {
		return fmt.Errorf("soapx: unmarshal body: %w", err)
	}
	return nil
}

var (
	envelopeName = xml.Name{Space: EnvelopeNS, Local: "Envelope"}
	bodyName     = xml.Name{Space: EnvelopeNS, Local: "Body"}
)

// xmlReader is the one-pass oracle: openXML stops on the body element and
// decode reads the payload from the same xml.Decoder, then the rest of the
// envelope.
type xmlReader struct {
	data  []byte
	src   bytes.Reader
	dec   *xml.Decoder
	start xml.StartElement
	open  int   // elements still open in dec: body element, Body, Envelope
	bad   error // the envelope is malformed: a client fault, whatever a handler made of it
}

// openXML reads data up to its body element, skipping Envelope's other
// children such as soap:Header.
func openXML(data []byte) (*xmlReader, error) {
	r := &xmlReader{data: data, open: 3}
	r.src.Reset(data)
	r.dec = xml.NewDecoder(&r.src)
	if err := r.seekBody(); err != nil {
		return nil, fmt.Errorf("soapx: bad envelope: %w", err)
	}
	return r, nil
}

func (r *xmlReader) seekBody() error {
	env, _, err := xmlChild(r.dec)
	if err != nil {
		return err
	}
	if env.Name != envelopeName {
		return fmt.Errorf("root is <%s> in name space %q", env.Name.Local, env.Name.Space)
	}
	for {
		el, ok, err := xmlChild(r.dec)
		if err != nil {
			return err
		}
		if !ok {
			return errXMLEmptyBody
		}
		if el.Name == bodyName {
			break
		}
		if err := r.dec.Skip(); err != nil {
			return err
		}
	}
	var ok bool
	r.start, ok, err = xmlChild(r.dec)
	if err == nil && !ok {
		err = errXMLEmptyBody
	}
	return err
}

var errXMLEmptyBody = errors.New("empty body")

// xmlChild reads up to the next element start inside the current
// element; ok is false when the current element ends first.
func xmlChild(dec *xml.Decoder) (start xml.StartElement, ok bool, err error) {
	for {
		tok, err := dec.Token()
		if err != nil {
			return xml.StartElement{}, false, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return t, true, nil
		case xml.EndElement:
			return xml.StartElement{}, false, nil
		}
	}
}

// decode decodes the body element into v and then reads the envelope to
// its end.
func (r *xmlReader) decode(v any) error {
	if r.open != 3 {
		return errors.New("soapx: body decoded twice")
	}
	err := r.dec.DecodeElement(v, &r.start)
	if err == nil {
		r.open = 2
		return r.finish()
	}
	// A failed decode leaves dec at an unknown depth. Reading the envelope
	// again, skipping the body element, tells a syntax error (a bad
	// envelope) from a well-formed payload of the wrong shape.
	again, aerr := openXML(r.data)
	if aerr == nil {
		aerr = again.finish()
	}
	r.open, r.bad = 0, aerr
	return err
}

// finish reads the rest of the envelope, once, and returns r.bad.
func (r *xmlReader) finish() error {
	for ; r.open > 0 && r.bad == nil; r.open-- {
		if err := r.dec.Skip(); err != nil {
			r.bad = fmt.Errorf("soapx: bad envelope: %w", err)
		}
	}
	return r.bad
}

// XMLUnmarshal is Unmarshal on the one-pass oracle. Exported for
// FuzzSOAPDecode in package soapx_test.
func XMLUnmarshal(data []byte, v any) error {
	r, err := openXML(data)
	if err != nil {
		return err
	}
	var f *Fault
	if r.start.Name.Local == "Fault" {
		f = new(Fault)
		v = f
	}
	err = r.decode(v)
	switch {
	case r.bad != nil:
		return r.bad
	case err != nil && f != nil:
		return fmt.Errorf("soapx: bad fault: %w", err)
	case err != nil:
		return fmt.Errorf("soapx: unmarshal body: %w", err)
	case f != nil:
		return f
	}
	return nil
}

// OutOfSubset reports whether err is the reader refusing a construct
// outside its subset that data does hold: a DOCTYPE or other <!
// directive, a CDATA section, a processing instruction other than the XML
// declaration ahead of the root element, or a name with a non-ASCII
// character. encoding/xml reads all four; the reader refuses them as a bad
// envelope, and that is the only place the two may disagree. Exported for
// FuzzSOAPDecode.
func OutOfSubset(data []byte, err error) bool {
	if !errors.Is(err, errUnsupported) {
		return false
	}
	switch msg := err.Error(); {
	case strings.Contains(msg, "CDATA"):
		return bytes.Contains(data, []byte("<![CDATA["))
	case strings.Contains(msg, "directive"):
		return bytes.Contains(data, []byte("<!"))
	case strings.Contains(msg, "processing instruction"):
		return bytes.Contains(data, []byte("<?"))
	case strings.Contains(msg, "non-ASCII"):
		return bytes.ContainsFunc(data, func(r rune) bool { return r >= utf8.RuneSelf })
	}
	return false
}

// fuzzPayload has no XMLName, so it decodes from any body element, and an
// int field, so a well-formed body can still fail to decode.
type fuzzPayload struct {
	Attr    string `xml:"a,attr"`
	Message string `xml:"message"`
	N       int    `xml:"n"`
	Text    string `xml:",chardata"`
}

// MessageSamples returns one filled-in value of every xmlmsg message type
// and a Fault. Exported for the byte-identity test in package soapx_test,
// which adds the core documents this package cannot import.
func MessageSamples() []any {
	return []any{
		&xmlmsg.ServiceRequestXML{
			Service: "simulation", Client: "client-7", Class: "Guaranteed",
			Params: []xmlmsg.QoSParamXML{
				{Name: "cpu", Exact: "4"},
				{Name: "memory-mb", Min: "256", Max: "1024"},
				{Name: "bandwidth-mbps", Values: "10,45,100"},
			},
			SourceIP: "10.10.3.4", DestIP: "192.200.168.33", MaxLoss: "LessThan 1%",
			Start: "2003-06-16T09:00:00Z", End: "2003-06-16T11:00:00Z", Budget: 120.5,
			AcceptDegradation: true, AcceptTermination: true, PromotionOptIn: true,
		},
		&xmlmsg.ServiceOfferXML{
			SLA: sla.ServiceSLAXML{SLAID: "site-a-sla-0042", Service: "simulation", Class: "Guaranteed",
				Spec: &sla.ServiceSpecificXML{CPU: "10 nodes", Memory: "2048 MB", Disk: "15 GB",
					Network: &sla.NetworkQoS{SourceIP: "10.10.3.4", DestIP: "192.200.168.33", Bandwidth: "45 Mbps"}},
				Price: "12.5"},
			Price: 12.5, Expires: "2003-06-16T09:02:00Z", Domain: "site-a",
		},
		&xmlmsg.SLAActionXML{SLAID: "site-a-sla-0042", Action: "terminate", Reason: "done <early> & clean"},
		&xmlmsg.AckXML{OK: true, Detail: "accepted"},
		&xmlmsg.RenegotiateRequestXML{SLAID: "site-a-sla-0042",
			Params: []xmlmsg.QoSParamXML{{Name: "cpu", Exact: "6"}}, SourceIP: "10.10.3.4", DestIP: "10.10.3.5"},
		&xmlmsg.BestEffortRequestXML{Client: "client-7", CPU: 3, Memory: 512, Disk: 2, Release: true},
		&xmlmsg.LoadReportRequestXML{},
		&Fault{Code: "soap:Server", String: "core: over budget", Detail: "over_budget"},
	}
}

// bodies counts the Body children of data's root element.
func bodies(data []byte) int {
	dec := xml.NewDecoder(bytes.NewReader(data))
	depth, n := 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return n
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if depth == 2 && t.Name == bodyName {
				n++
			}
		case xml.EndElement:
			depth--
			if depth == 0 {
				return n
			}
		}
	}
}

// verdict is what a reader makes of one input: the body element it
// dispatches on (or its refusal), the mux's bad-envelope verdict with the
// handler decoding a fuzzPayload and with it never decoding, and
// Unmarshal's result.
type verdict struct {
	name     string
	openErr  error
	bad      [2]bool
	err      error
	fault    *Fault
	payload  fuzzPayload
	refusing error // the reader's first refusal, for OutOfSubset
}

type envelopeReader interface {
	decode(any) error
	finish() error
}

func readVerdict(data []byte, open func([]byte) (string, envelopeReader, error), unmarshal func([]byte, any) error) verdict {
	var v verdict
	v.name, _, v.openErr = open(data)
	v.refusing = v.openErr
	for i, decode := range []bool{true, false} {
		v.bad[i] = true
		if _, r, err := open(data); err == nil {
			if decode {
				_ = r.decode(new(fuzzPayload))
			}
			err = r.finish()
			v.bad[i] = err != nil
			if v.refusing == nil {
				v.refusing = err
			}
		}
	}
	v.err = unmarshal(data, &v.payload)
	errors.As(v.err, &v.fault)
	if v.refusing == nil {
		v.refusing = v.err
	}
	return v
}

func openReader(data []byte) (string, envelopeReader, error) {
	r := new(bodyReader)
	if err := r.openEnvelope(data); err != nil {
		return "", nil, err
	}
	return string(r.body), r, nil
}

func openOracle(data []byte) (string, envelopeReader, error) {
	r, err := openXML(data)
	if err != nil {
		return "", nil, err
	}
	return r.start.Name.Local, r, nil
}

// FuzzSOAPEnvelope holds the reader to both oracles: for any input they
// agree on accept or refuse, on the body element's name, on fault or
// payload, on the fault and on the decoded test payload, and the mux's
// bad-envelope verdict (with the handler decoding or not) is the
// oracle's.
//
// Against the one-pass oracle the one divergence is OutOfSubset: the
// reader refuses a construct outside its subset that encoding/xml reads.
// Against the three-pass oracle two more are deliberate and skipped by
// name:
//
//   - More than one Body: the oracle's innerxml copy kept the last Body,
//     the reader dispatches on the first and skips the rest. SOAP 1.1
//     allows one Body, and a reader that stops early cannot know of a
//     later one.
//   - A Fault whose name space is declared on an ancestor
//     (<soap:Fault> with xmlns:soap on Envelope, as SOAP toolkits write
//     it): the oracle decoded Body's copy without its ancestors' name
//     space declarations and refused it as a bad fault; the reader decodes
//     it in place and returns the fault.
func FuzzSOAPEnvelope(f *testing.F) {
	for _, v := range MessageSamples() {
		data, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	open := xml.Header + `<soap:Envelope xmlns:soap="` + EnvelopeNS + `">`
	for _, s := range []string{
		open + `<soap:Header><t>1</t></soap:Header><soap:Body><ping a="x"><message>hi</message><n>3</n></ping></soap:Body></soap:Envelope>`,
		open + `<soap:Body><ping><n>three</n></ping></soap:Body></soap:Envelope>`,
		open + `<soap:Body><ping><message>x</ping></soap:Body></soap:Envelope>`,
		open + `<soap:Body><ping/></soap:Body><junk></soap:Envelope>`,
		open + `<soap:Body><ping/></soap:Body></soap:Envelope>trailing<`,
		open + `<soap:Body></soap:Body><soap:Body><ping/></soap:Body></soap:Envelope>`,
		open + `<soap:Body><soap:Fault><faultcode>c</faultcode></soap:Fault></soap:Body></soap:Envelope>`,
		open + `<soap:Body><Fault><faultcode>c</faultcode></Fault></soap:Body></soap:Envelope>`,
		open + `<Body><ping/></Body></soap:Envelope>`,
		open + `<soap:Body><ping a="&lt;&#x41;&#66;"><!-- c --><message>a&amp;b` + "\r\n" + `c</message>x<!---->y</ping></soap:Body></soap:Envelope>`,
		open + `<soap:Body><ping><message><![CDATA[x]]></message></ping></soap:Body></soap:Envelope>`,
		`<!DOCTYPE e><Envelope><Body><ping/></Body></Envelope>`,
		`<Envelope><Body><ping/></Body></Envelope>`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := readVerdict(data, openReader, Unmarshal)
		one := readVerdict(data, openOracle, XMLUnmarshal)
		if !OutOfSubset(data, got.refusing) {
			compareVerdicts(t, "one-pass", one, got)
		}
		if bodies(data) > 1 || OutOfSubset(data, got.refusing) {
			return
		}
		name, _, err := oracleBodyElement(data)
		three := verdict{name: name, openErr: err, bad: [2]bool{err != nil, err != nil}}
		three.err = oracleUnmarshal(data, &three.payload)
		errors.As(three.err, &three.fault)
		if got.fault != nil && three.fault == nil && strings.HasPrefix(three.err.Error(), "soapx: bad fault:") {
			return
		}
		compareVerdicts(t, "three-pass", three, got)
	})
}

func compareVerdicts(t *testing.T, oracle string, want, got verdict) {
	t.Helper()
	switch {
	case want.openErr == nil && (got.openErr != nil || got.name != want.name):
		t.Fatalf("%s: body element: oracle %q, reader %q (%v)", oracle, want.name, got.name, got.openErr)
	case want.bad != got.bad:
		t.Fatalf("%s: bad envelope (handler decodes, does not): oracle %v, reader %v", oracle, want.bad, got.bad)
	case (want.err == nil) != (got.err == nil):
		t.Fatalf("%s: accept: oracle %v, reader %v", oracle, want.err, got.err)
	case (want.fault == nil) != (got.fault == nil):
		t.Fatalf("%s: fault: oracle %v, reader %v", oracle, want.err, got.err)
	case want.fault != nil && *want.fault != *got.fault:
		t.Fatalf("%s: fault: oracle %+v, reader %+v", oracle, *want.fault, *got.fault)
	case want.err == nil && want.payload != got.payload:
		t.Fatalf("%s: payload: oracle %+v, reader %+v", oracle, want.payload, got.payload)
	}
}
