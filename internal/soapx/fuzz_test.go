package soapx

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"gqosm/internal/sla"
	"gqosm/internal/xmlmsg"
)

// The three-pass decode soapx used before bodyReader, kept as the oracle
// FuzzSOAPEnvelope holds the one-pass reader to: unmarshal the whole
// envelope to copy out Body's inner XML, tokenise that copy to find the
// body element, and unmarshal the copy a third time into the payload.

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

// FuzzSOAPEnvelope holds the one-pass reader to the three-pass oracle: for
// any input they agree on accept or refuse, on the body element's name, on
// fault or payload, on the fault and on the decoded test payload, and the
// mux's bad-envelope verdict (with the handler decoding or not) is the
// oracle's. Two divergences are deliberate and skipped by name:
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
		`<Envelope><Body><ping/></Body></Envelope>`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if bodies(data) > 1 {
			return
		}
		oldName, _, oldErr := oracleBodyElement(data)

		r, err := openBody(data)
		if oldErr == nil && (err != nil || r.start.Name.Local != oldName) {
			t.Fatalf("body element: oracle %q, reader %v", oldName, err)
		}
		for _, decode := range []bool{true, false} {
			bad := true
			if r, err := openBody(data); err == nil {
				if decode {
					_ = r.decode(new(fuzzPayload))
				}
				bad = r.finish() != nil
			}
			if bad != (oldErr != nil) {
				t.Fatalf("bad envelope (handler decodes: %v): oracle %v, reader %v", decode, oldErr, bad)
			}
		}

		var oldV, newV fuzzPayload
		oldU, newU := oracleUnmarshal(data, &oldV), Unmarshal(data, &newV)
		var oldF, newF *Fault
		oldFault, newFault := errors.As(oldU, &oldF), errors.As(newU, &newF)
		if newFault && !oldFault && strings.HasPrefix(oldU.Error(), "soapx: bad fault:") {
			return
		}
		switch {
		case (oldU == nil) != (newU == nil):
			t.Fatalf("accept: oracle %v, reader %v", oldU, newU)
		case oldFault != newFault:
			t.Fatalf("fault: oracle %v, reader %v", oldU, newU)
		case oldFault && *oldF != *newF:
			t.Fatalf("fault: oracle %+v, reader %+v", *oldF, *newF)
		case oldU == nil && oldV != newV:
			t.Fatalf("payload: oracle %+v, reader %+v", oldV, newV)
		}
	})
}
