package sla

import (
	"encoding/xml"
	"strings"
	"testing"

	"gqosm/internal/resource"
)

// table1Sample is the exact document of the paper's Table 1 (whitespace
// normalized).
const table1Sample = `<Service-Specific>
  <CPU-QoS>4 CPU</CPU-QoS>
  <Memory-QoS>64MB</Memory-QoS>
  <Network_QoS>
    <Source_IP> 192.200.168.33 </Source_IP>
    <Dest_IP> 135.200.50.101 </Dest_IP>
    <Bandwidth> 10 Mbps </Bandwidth>
    <Packet_Loss> LessThan 10% </Packet_Loss>
  </Network_QoS>
</Service-Specific>`

func TestDecodeTable1Sample(t *testing.T) {
	var doc ServiceSpecificXML
	if err := xml.Unmarshal([]byte(table1Sample), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	cap, spec, err := DecodeServiceSpecific(doc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := resource.Capacity{CPU: 4, MemoryMB: 64, BandwidthMbps: 10}
	if !cap.Equal(want) {
		t.Errorf("capacity = %v, want %v", cap, want)
	}
	if spec.SourceIP != "192.200.168.33" || spec.DestIP != "135.200.50.101" {
		t.Errorf("endpoints = %q -> %q", spec.SourceIP, spec.DestIP)
	}
	if spec.MaxPacketLossPct != 10 {
		t.Errorf("packet loss = %g, want 10", spec.MaxPacketLossPct)
	}
}

func TestEncodeTable1RoundTrip(t *testing.T) {
	spec := table1Spec()
	alloc := resource.Capacity{CPU: 4, MemoryMB: 64, BandwidthMbps: 10}
	enc := EncodeServiceSpecific(spec, alloc)
	if enc.CPU != "4 CPU" {
		t.Errorf("CPU = %q, want %q", enc.CPU, "4 CPU")
	}
	if enc.Memory != "64MB" {
		t.Errorf("Memory = %q, want %q", enc.Memory, "64MB")
	}
	if enc.Network == nil || enc.Network.Bandwidth != "10 Mbps" {
		t.Fatalf("Network = %+v", enc.Network)
	}
	if enc.Network.PacketLoss != "LessThan 10%" {
		t.Errorf("PacketLoss = %q", enc.Network.PacketLoss)
	}

	data, err := MarshalIndent(enc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var again ServiceSpecificXML
	if err := xml.Unmarshal(data, &again); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	capBack, specBack, err := DecodeServiceSpecific(again)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !capBack.Equal(alloc) {
		t.Errorf("round-trip capacity = %v, want %v", capBack, alloc)
	}
	if specBack.MaxPacketLossPct != 10 {
		t.Errorf("round-trip loss = %g", specBack.MaxPacketLossPct)
	}
}

// table4Sample mirrors the paper's Table 4 adaptation-options SLA.
const table4Sample = `<Service_SLA>
  <QoS_Class> Controlled-load </QoS_Class>
  <Adaptation_Options>
    <Alternative_QoS>
      <CPU> 55 nodes on Linux OS </CPU>
      <Memory> 48 MB </Memory>
      <Bandwidth> 45 Mbps </Bandwidth>
    </Alternative_QoS>
    <Promotion_Offer>Accept</Promotion_Offer>
  </Adaptation_Options>
</Service_SLA>`

func TestDecodeTable4Sample(t *testing.T) {
	var doc ServiceSLAXML
	if err := xml.Unmarshal([]byte(table4Sample), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	d, err := DecodeDocument(doc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Class != ClassControlledLoad {
		t.Errorf("class = %v", d.Class)
	}
	if !d.Adapt.PromotionOffers {
		t.Error("promotion offer not decoded")
	}
	if !d.Adapt.HasAlternative {
		t.Fatal("alternative QoS not decoded")
	}
	want := resource.Capacity{CPU: 55, MemoryMB: 48, BandwidthMbps: 45}
	if !d.Adapt.AlternativeQoS.Equal(want) {
		t.Errorf("alternative = %v, want %v", d.Adapt.AlternativeQoS, want)
	}
	if d.State != StateProposed {
		t.Errorf("state = %v, want proposed", d.State)
	}
}

func TestEncodeDocumentTable4(t *testing.T) {
	d := &Document{
		ID:      "1055",
		Service: "simulation",
		Class:   ClassControlledLoad,
		Spec:    table1Spec(),
		Adapt: AdaptationOptions{
			HasAlternative:  true,
			AlternativeQoS:  resource.Capacity{CPU: 55, MemoryMB: 48, BandwidthMbps: 45},
			PromotionOffers: true,
		},
		Allocated: resource.Capacity{CPU: 4, MemoryMB: 64, BandwidthMbps: 10},
		Price:     120.5,
		State:     StateEstablished,
	}
	enc := EncodeDocument(d)
	data, err := MarshalIndent(enc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	s := string(data)
	for _, want := range []string{
		"<Service_SLA>", "<QoS_Class>Controlled-load</QoS_Class>",
		"<Alternative_QoS>", "<CPU>55 nodes</CPU>", "<Memory>48 MB</Memory>",
		"<Bandwidth>45 Mbps</Bandwidth>", "<Promotion_Offer>Accept</Promotion_Offer>",
		"<Total_Cost>120.5</Total_Cost>",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded SLA missing %q:\n%s", want, s)
		}
	}

	// Round trip.
	var again ServiceSLAXML
	if err := xml.Unmarshal(data, &again); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	back, err := DecodeDocument(again)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.ID != d.ID || back.Class != d.Class || back.Price != d.Price {
		t.Errorf("round trip = %+v", back)
	}
	if !back.Adapt.AlternativeQoS.Equal(d.Adapt.AlternativeQoS) {
		t.Errorf("alternative = %v", back.Adapt.AlternativeQoS)
	}
	if !back.Allocated.Equal(d.Allocated) {
		t.Errorf("allocated = %v, want %v", back.Allocated, d.Allocated)
	}
}

func TestEncodeDocumentDeclinesPromotion(t *testing.T) {
	d := &Document{
		ID:    "p1",
		Class: ClassControlledLoad,
		Spec:  NewSpec(Range(resource.CPU, 4, 10)),
		State: StateEstablished,
	}
	enc := EncodeDocument(d)
	if enc.Adapt == nil || enc.Adapt.PromotionOffer != "Decline" {
		t.Fatalf("Adapt = %+v, want explicit Decline", enc.Adapt)
	}
}

func TestDecodeDocumentErrors(t *testing.T) {
	bad := []ServiceSLAXML{
		{Class: "platinum"},
		{Class: "Guaranteed", Spec: &ServiceSpecificXML{CPU: "lots"}},
		{Class: "Guaranteed", Price: "free"},
		{Class: "Guaranteed", Adapt: &AdaptationXML{Alternative: &AlternativeQoSXML{CPU: "many nodes"}}},
	}
	for i, doc := range bad {
		if _, err := DecodeDocument(doc); err == nil {
			t.Errorf("case %d: decode succeeded, want error", i)
		}
	}
}

func TestParseQuantity(t *testing.T) {
	tests := []struct {
		in      string
		want    float64
		wantErr bool
	}{
		{"4 CPU", 4, false},
		{"64MB", 64, false},
		{"10 Mbps", 10, false},
		{"9.5 Mbps", 9.5, false},
		{"LessThan 10%", 10, false},
		{"MoreThan 2", 2, false},
		{"55 nodes on Linux OS", 55, false},
		{"10ms", 10, false},
		{" 622 Mbps ", 622, false},
		{"", 0, true},
		{"lots", 0, true},
		{"LessThan much", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseQuantity(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if got != tt.want {
				t.Errorf("ParseQuantity = %g, want %g", got, tt.want)
			}
		})
	}
}
