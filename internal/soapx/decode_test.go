package soapx_test

import (
	"bytes"
	"encoding/xml"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gqosm/internal/core"
	"gqosm/internal/registry"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
	"gqosm/internal/xmlmsg"
)

// loadReportXML has the shape of core's unexported load_report reply;
// core's own tests decode the real type.
type loadReportXML struct {
	XMLName xml.Name `xml:"load_report"`
	core.LoadReport
}

// wireSamples returns one filled-in value of every type that crosses the
// SOAP wire: the xmlmsg messages and the Fault, core's Table-3 document and
// load_report reply, and the registry's UDDIe messages.
func wireSamples() []any {
	service := registry.ServiceXML{Key: "site-a-svc-1", Name: "simulation", Provider: "site-a",
		Description: "grid <simulation> & co", AccessPoint: "http://site-a:8080/",
		Properties: []registry.PropertyXML{{Name: "cpu", Type: "number", Value: "16"},
			{Name: "os", Type: "string", Value: "linux"}},
		LeaseUntil: "2003-06-16T11:00:00Z"}
	return append(soapx.MessageSamples(),
		&core.QoSLevelsXML{SLAID: "site-a-sla-0042", Conforms: true,
			Network: &core.MeasuredNetworkXML{SourceIP: "10.10.3.4", DestIP: "192.200.168.33",
				Bandwidth: "45 Mbps", PacketLoss: "0.1%", Delay: "20 ms"},
			Compute: &core.MeasuredComputeXML{CPU: "10 nodes", Memory: "2048 MB", Disk: "15 GB"}},
		&core.QoSLevelsXML{SLAID: "site-a-sla-0043"},
		&loadReportXML{LoadReport: core.LoadReport{Domain: "site-a", Sessions: 12, Load: 0.75, Recovering: true}},
		&registry.SaveServiceXML{Service: service},
		&registry.FindServiceXML{NamePattern: "sim*", MaxRows: 5,
			Filters: []registry.FilterXML{{Name: "cpu", Op: ">=", Value: "4"}, {Name: "os", Op: "=", Value: "linux"}}},
		&registry.ServiceKeyXML{Key: "site-a-svc-1"},
		&registry.ServiceListXML{Services: []registry.ServiceXML{service, {Name: "storage"}}},
		// A request that repeats a kind: the later parameter replaces the
		// earlier one, and the decoded spec holds the kind once.
		&xmlmsg.ServiceRequestXML{Service: "simulation", Client: "client-8", Class: "Controlled-Load",
			Params: []xmlmsg.QoSParamXML{{Name: "memory-mb", Exact: "512"}, {Name: "cpu", Exact: "4"},
				{Name: "cpu", Min: "2", Max: "8"}},
			Start: "2003-06-16T09:00:00Z", End: "2003-06-16T11:00:00Z"},
	)
}

// checkSpec decodes the QoS parameters of a request or renegotiation the
// way the broker's SOAP rows do: a spec xmlmsg.DecodeSpec accepts holds
// one parameter per kind, in kind order.
func checkSpec(t *testing.T, v any) {
	t.Helper()
	var (
		spec sla.Spec
		err  error
	)
	switch m := v.(type) {
	case *xmlmsg.ServiceRequestXML:
		spec, err = xmlmsg.DecodeSpec(m.Params, m.SourceIP, m.DestIP, m.MaxLoss)
	case *xmlmsg.RenegotiateRequestXML:
		spec, err = xmlmsg.DecodeSpec(m.Params, m.SourceIP, m.DestIP, m.MaxLoss)
	default:
		return
	}
	if err != nil {
		return
	}
	if err := spec.Validate(); errors.Is(err, sla.ErrKindRepeated) || errors.Is(err, sla.ErrKindOrder) {
		t.Fatalf("%T: DecodeSpec gave %v: %v", v, spec.Params, err)
	}
}

// fresh returns a new zero value of v's type.
func fresh(v any) any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }

// unmarshal decodes data into a new value of v's type; a decoded Fault
// is the value.
func unmarshal(decode func([]byte, any) error, data []byte, v any) (any, error) {
	out := fresh(v)
	err := decode(data, out)
	var f *soapx.Fault
	if errors.As(err, &f) {
		return f, nil
	}
	return out, err
}

// TestWireTypesDecode builds the decode plan of every wire type, so a tag
// outside the reader's subset fails here and not on a live request, and
// checks each sample's round trip: the reader decodes what encoding/xml
// decodes, and encoding the result again gives the same bytes.
func TestWireTypesDecode(t *testing.T) {
	for _, v := range wireSamples() {
		data, err := soapx.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := unmarshal(soapx.Unmarshal, data, v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		want, err := unmarshal(soapx.XMLUnmarshal, data, v)
		if err != nil {
			t.Fatalf("%T: oracle: %v", v, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: reader %+v, encoding/xml %+v", v, got, want)
		}
		if again, err := soapx.Marshal(got); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%T: re-encoded %s (%v), want %s", v, again, err, data)
		}
		checkSpec(t, got)
	}
}

// FuzzSOAPDecode decodes every input into every wire type through the
// reader and through the one-pass oracle (encoding/xml's Decoder). The
// reader never accepts what encoding/xml refuses and never decodes a
// different value or fault; both refuse for the same reason — a bad
// envelope, a payload of the wrong shape or a bad fault. It may refuse
// what encoding/xml reads only by OutOfSubset: a DOCTYPE or other <!
// directive, CDATA, a processing instruction other than the leading XML
// declaration, a name with a non-ASCII character.
func FuzzSOAPDecode(f *testing.F) {
	samples := wireSamples()
	for _, v := range samples {
		data, err := soapx.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range samples {
			got, want := fresh(v), fresh(v)
			gotErr, wantErr := soapx.Unmarshal(data, got), soapx.XMLUnmarshal(data, want)
			if gotErr != nil && soapx.OutOfSubset(data, gotErr) {
				continue
			}
			var gotF, wantF *soapx.Fault
			errors.As(gotErr, &gotF)
			errors.As(wantErr, &wantF)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%T: accept: reader %v, encoding/xml %v", v, gotErr, wantErr)
			case gotErr == nil && !reflect.DeepEqual(got, want):
				t.Fatalf("%T: reader %+v, encoding/xml %+v", v, got, want)
			case reason(gotErr) != reason(wantErr):
				t.Fatalf("%T: reader %v, encoding/xml %v", v, gotErr, wantErr)
			case gotF != nil && *gotF != *wantF:
				t.Fatalf("%T: fault: reader %+v, encoding/xml %+v", v, *gotF, *wantF)
			}
			if gotErr == nil {
				checkSpec(t, got)
			}
		}
	})
}

// reason names why Unmarshal refused: a fault, or the "soapx: …:" prefix.
func reason(err error) string {
	var f *soapx.Fault
	switch {
	case err == nil:
		return ""
	case errors.As(err, &f):
		return "fault"
	}
	parts := strings.SplitN(err.Error(), ":", 3)
	return strings.Join(parts[:min(2, len(parts))], ":")
}
