package xmlmsg

import (
	"bytes"
	"runtime/debug"
	"slices"
	"testing"

	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// benchOffer is a representative broker reply: a full SLA with compute
// and network QoS, priced, with a confirmation deadline.
func benchOffer() *ServiceOfferXML {
	return &ServiceOfferXML{
		SLA: sla.ServiceSLAXML{
			SLAID:   "site-a-sla-0042",
			Service: "simulation",
			Class:   "Guaranteed",
			Spec: &sla.ServiceSpecificXML{
				CPU:    "10 nodes",
				Memory: "2048 MB",
				Disk:   "15 GB",
				Network: &sla.NetworkQoS{
					SourceIP:  "10.10.3.4",
					DestIP:    "192.200.168.33",
					Bandwidth: "45 Mbps",
				},
			},
			Price: "12.5",
		},
		Price:   12.5,
		Expires: "2003-06-16T09:02:00Z",
		Domain:  "site-a",
	}
}

// encodeOffer is the service-offer reply path: the SOAP envelope around
// the broker's offer document, as ServeHTTP sends it. BenchmarkOfferEncode
// times it and TestSOAPOfferEncodeAllocGate counts its allocations.
func encodeOffer(tb testing.TB, offer *ServiceOfferXML) {
	if _, err := soapx.Marshal(offer); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkOfferEncode(b *testing.B) {
	offer := benchOffer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeOffer(b, offer)
	}
}

// TestSOAPOfferEncodeAllocGate is the deterministic allocation gate for
// the SOAP reply encode: with a warm encoder pair, what remains is
// encoding/xml's own bookkeeping for this document plus the returned
// slice (measured 4, gate measured + 10 %; 15 while every encode built a
// fresh xml.Encoder).
func TestSOAPOfferEncodeAllocGate(t *testing.T) {
	// Under -race sync.Pool drops items at random, so the pooled encode no
	// longer allocates a fixed count.
	info, _ := debug.ReadBuildInfo()
	if info != nil && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	}) {
		t.Skip("allocation counts are not exact under -race")
	}
	offer := benchOffer()
	const gate = 4
	if allocs := testing.AllocsPerRun(200, func() { encodeOffer(t, offer) }); allocs > gate {
		t.Errorf("SOAP offer encode allocates %.0f objects per call, gate is %d", allocs, gate)
	}
}

// decodeAllocs counts the objects one soapx.Unmarshal of data into a T
// allocates, the T itself excluded.
func decodeAllocs[T any](t *testing.T, data []byte) float64 {
	var v T
	return testing.AllocsPerRun(200, func() {
		v = *new(T)
		if err := soapx.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSOAPDecodeAllocGate is the deterministic allocation gate for the
// envelope decode, on the messages of every session: the client's
// service_request, the broker's service_offer, an ack and an sla_action
// (measured 19, 15, 2 and 4: the reader, the strings and slices the value
// holds; each gate is measured + 10 %, rounded up). encoding/xml's
// one-pass Decoder read 228, 204, 56 and 67; the three-pass decode before
// it 403, 359 and 102 for the first three. Unmarshal crosses no
// sync.Pool, so the counts hold under -race too.
func TestSOAPDecodeAllocGate(t *testing.T) {
	request, err := soapx.Marshal(&ServiceRequestXML{
		Service: "simulation", Client: "client-7", Class: "Guaranteed",
		Params: []QoSParamXML{{Name: "cpu", Exact: "10"}, {Name: "memory-mb", Exact: "2048"},
			{Name: "disk-gb", Exact: "15"}, {Name: "bandwidth-mbps", Exact: "45"}},
		SourceIP: "10.10.3.4", DestIP: "192.200.168.33",
		Start: "2003-06-16T09:00:00Z", End: "2003-06-16T11:00:00Z",
	})
	if err != nil {
		t.Fatal(err)
	}
	offer, err := soapx.Marshal(benchOffer())
	if err != nil {
		t.Fatal(err)
	}
	ack, err := soapx.Marshal(&AckXML{OK: true, Detail: "accepted"})
	if err != nil {
		t.Fatal(err)
	}
	action, err := soapx.Marshal(&SLAActionXML{SLAID: "site-a-sla-0042", Action: "terminate", Reason: "done"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		allocs float64
		gate   float64
	}{
		{"service_request", decodeAllocs[ServiceRequestXML](t, request), 21},
		{"service_offer", decodeAllocs[ServiceOfferXML](t, offer), 17},
		{"ack", decodeAllocs[AckXML](t, ack), 3},
		{"sla_action", decodeAllocs[SLAActionXML](t, action), 5},
	} {
		if c.allocs > c.gate {
			t.Errorf("SOAP decode of a %s allocates %.0f objects, gate is %.0f", c.name, c.allocs, c.gate)
		}
	}
}

// TestOfferEncodeWellFormed pins the envelope shape the benchmark
// exercises: the pooled encoder must produce the same document as a
// plain xml.Marshal wrapped in the envelope.
func TestOfferEncodeWellFormed(t *testing.T) {
	out, err := soapx.Marshal(benchOffer())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<soap:Envelope", "<soap:Body>", "<service_offer>",
		"<SLA-ID>site-a-sla-0042</SLA-ID>", "<Bandwidth>45 Mbps</Bandwidth>",
		"</service_offer>", "</soap:Body></soap:Envelope>",
	} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("marshaled offer missing %q in:\n%s", want, out)
		}
	}
	var back ServiceOfferXML
	if err := soapx.Unmarshal(out, &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.SLA.SLAID != "site-a-sla-0042" || back.Price != 12.5 {
		t.Errorf("round-trip lost fields: %+v", back)
	}
}
