package xmlmsg

import (
	"encoding/xml"
	"strings"
	"testing"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

func sampleSpec() sla.Spec {
	s := sla.NewSpec(
		sla.Exact(resource.CPU, 10),
		sla.Range(resource.MemoryMB, 512, 2048),
		sla.List(resource.BandwidthMbps, 10, 45, 100),
	)
	s.SourceIP = "10.10.3.4"
	s.DestIP = "192.200.168.33"
	s.MaxPacketLossPct = 10
	return s
}

func TestEncodeDecodeSpecRoundTrip(t *testing.T) {
	spec := sampleSpec()
	params := EncodeSpec(spec)
	if len(params) != 3 {
		t.Fatalf("EncodeSpec = %d params", len(params))
	}
	back, err := DecodeSpec(params, spec.SourceIP, spec.DestIP, "LessThan 10%")
	if err != nil {
		t.Fatalf("DecodeSpec: %v", err)
	}
	if !back.Floor().Equal(spec.Floor()) || !back.Best().Equal(spec.Best()) {
		t.Errorf("round trip floor/best mismatch: %v / %v", back.Floor(), back.Best())
	}
	p, ok := back.Params[resource.BandwidthMbps]
	if !ok || p.Form != sla.FormList || len(p.Values) != 3 {
		t.Errorf("list param = %+v", p)
	}
	if back.SourceIP != spec.SourceIP || back.MaxPacketLossPct != 10 {
		t.Errorf("network fields lost: %+v", back)
	}
}

func TestDecodeSpecErrors(t *testing.T) {
	cases := []struct {
		name   string
		params []QoSParamXML
		loss   string
	}{
		{"unknown kind", []QoSParamXML{{Name: "gpu", Exact: "1"}}, ""},
		{"no form", []QoSParamXML{{Name: "cpu"}}, ""},
		{"bad exact", []QoSParamXML{{Name: "cpu", Exact: "lots"}}, ""},
		{"bad list", []QoSParamXML{{Name: "cpu", Values: "1,two"}}, ""},
		{"bad min", []QoSParamXML{{Name: "cpu", Min: "x", Max: "2"}}, ""},
		{"bad max", []QoSParamXML{{Name: "cpu", Min: "1", Max: "x"}}, ""},
		{"bad loss", []QoSParamXML{{Name: "cpu", Exact: "1"}}, "bad"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeSpec(tt.params, "", "", tt.loss); err == nil {
				t.Error("decode succeeded")
			}
		})
	}
}

func TestServiceRequestXMLShape(t *testing.T) {
	req := ServiceRequestXML{
		Service:           "simulation",
		Client:            "site-c",
		Class:             "Guaranteed",
		Params:            EncodeSpec(sampleSpec()),
		SourceIP:          "10.10.3.4",
		DestIP:            "192.200.168.33",
		Start:             "2003-06-16T09:00:00Z",
		End:               "2003-06-16T14:00:00Z",
		Budget:            200,
		AcceptDegradation: true,
	}
	data, err := xml.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		"<service_request>", "<Service_Name>simulation</Service_Name>",
		"<QoS_Specification>", `<Parameter name="cpu">`, "<Source_IP>10.10.3.4</Source_IP>",
		"<Reservation>", "<Budget>200</Budget>", "<Accept_Degradation>true</Accept_Degradation>",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("request XML missing %q:\n%s", want, s)
		}
	}
	var back ServiceRequestXML
	if err := xml.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Service != req.Service || len(back.Params) != len(req.Params) ||
		back.Start != req.Start || !back.AcceptDegradation {
		t.Errorf("round trip = %+v", back)
	}
}

func TestSLAActionAndAck(t *testing.T) {
	act := SLAActionXML{SLAID: "1055", Action: "verify"}
	data, err := xml.Marshal(act)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<SLA-ID>1055</SLA-ID>") {
		t.Errorf("action XML = %s", data)
	}
	ack := AckXML{OK: true, Detail: "job-1"}
	data, err = xml.Marshal(ack)
	if err != nil {
		t.Fatal(err)
	}
	var back AckXML
	if err := xml.Unmarshal(data, &back); err != nil || !back.OK || back.Detail != "job-1" {
		t.Errorf("ack round trip = %+v, %v", back, err)
	}
}

func TestBestEffortRequestXML(t *testing.T) {
	req := BestEffortRequestXML{Client: "student", CPU: 4, Memory: 512}
	data, err := xml.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back BestEffortRequestXML
	if err := xml.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Client != "student" || back.CPU != 4 || back.Memory != 512 || back.Release {
		t.Errorf("round trip = %+v", back)
	}
}
