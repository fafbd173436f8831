package sla

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"

	"gqosm/internal/resource"
)

// This file implements the paper's XML wire formats for SLA content:
//
//   - Table 1: the <Service-Specific> resource portion relayed to resource
//     managers after SLA establishment.
//   - Table 4: the <Service_SLA> negotiated agreement with
//     <Adaptation_Options>.
//
// Quantities are encoded with the units used in the paper ("4 CPU",
// "64MB", "10 Mbps", "LessThan 10%") and parsed back leniently.

// ServiceSpecificXML mirrors Table 1: the SLA portion describing resources,
// relayed to the RM (computation) and NRM (network).
type ServiceSpecificXML struct {
	XMLName xml.Name    `xml:"Service-Specific"`
	CPU     string      `xml:"CPU-QoS,omitempty"`
	Memory  string      `xml:"Memory-QoS,omitempty"`
	Disk    string      `xml:"Disk-QoS,omitempty"`
	Network *NetworkQoS `xml:"Network_QoS,omitempty"`
}

// NetworkQoS is the <Network_QoS> element of Tables 1 and 3.
type NetworkQoS struct {
	SourceIP   string `xml:"Source_IP"`
	DestIP     string `xml:"Dest_IP"`
	Bandwidth  string `xml:"Bandwidth"`
	PacketLoss string `xml:"Packet_Loss,omitempty"`
	Delay      string `xml:"Delay,omitempty"`
}

// EncodeServiceSpecific renders the resource portion of a spec at the given
// allocated capacity as a Table-1 document.
func EncodeServiceSpecific(s Spec, alloc resource.Capacity) ServiceSpecificXML {
	out := ServiceSpecificXML{}
	if s.Has(resource.CPU) {
		out.CPU = fmt.Sprintf("%s CPU", trimFloat(alloc.CPU))
	}
	if s.Has(resource.MemoryMB) {
		out.Memory = fmt.Sprintf("%sMB", trimFloat(alloc.MemoryMB))
	}
	if s.Has(resource.DiskGB) {
		out.Disk = fmt.Sprintf("%sGB", trimFloat(alloc.DiskGB))
	}
	if s.Has(resource.BandwidthMbps) {
		nq := &NetworkQoS{
			SourceIP:  s.SourceIP,
			DestIP:    s.DestIP,
			Bandwidth: fmt.Sprintf("%s Mbps", trimFloat(alloc.BandwidthMbps)),
		}
		if s.MaxPacketLossPct > 0 {
			nq.PacketLoss = fmt.Sprintf("LessThan %s%%", trimFloat(s.MaxPacketLossPct))
		}
		out.Network = nq
	}
	return out
}

// DecodeServiceSpecific parses a Table-1 document back into the capacity it
// describes plus the network constraints.
func DecodeServiceSpecific(doc ServiceSpecificXML) (resource.Capacity, Spec, error) {
	var (
		cap    resource.Capacity
		buf    [len(resource.Kinds)]Param
		params = buf[:0]
		spec   Spec
	)
	if doc.CPU != "" {
		v, err := ParseQuantity(doc.CPU)
		if err != nil {
			return cap, Spec{}, fmt.Errorf("sla: CPU-QoS: %w", err)
		}
		cap.CPU = v
		params = append(params, Exact(resource.CPU, v))
	}
	if doc.Memory != "" {
		v, err := ParseQuantity(doc.Memory)
		if err != nil {
			return cap, Spec{}, fmt.Errorf("sla: Memory-QoS: %w", err)
		}
		cap.MemoryMB = v
		params = append(params, Exact(resource.MemoryMB, v))
	}
	if doc.Disk != "" {
		v, err := ParseQuantity(doc.Disk)
		if err != nil {
			return cap, Spec{}, fmt.Errorf("sla: Disk-QoS: %w", err)
		}
		cap.DiskGB = v
		params = append(params, Exact(resource.DiskGB, v))
	}
	if doc.Network != nil {
		v, err := ParseQuantity(doc.Network.Bandwidth)
		if err != nil {
			return cap, Spec{}, fmt.Errorf("sla: Bandwidth: %w", err)
		}
		cap.BandwidthMbps = v
		params = append(params, Exact(resource.BandwidthMbps, v))
		spec.SourceIP = strings.TrimSpace(doc.Network.SourceIP)
		spec.DestIP = strings.TrimSpace(doc.Network.DestIP)
		if doc.Network.PacketLoss != "" {
			loss, err := ParseQuantity(doc.Network.PacketLoss)
			if err != nil {
				return cap, Spec{}, fmt.Errorf("sla: Packet_Loss: %w", err)
			}
			spec.MaxPacketLossPct = loss
		}
	}
	spec.Params = NewSpec(params...).Params
	return cap, spec, nil
}

// ServiceSLAXML mirrors Table 4: a negotiated SLA document highlighting the
// adaptation strategy.
type ServiceSLAXML struct {
	XMLName xml.Name            `xml:"Service_SLA"`
	SLAID   string              `xml:"SLA-ID,omitempty"`
	Service string              `xml:"Service_Name,omitempty"`
	Spec    *ServiceSpecificXML `xml:"QoS_Specification>Service-Specific,omitempty"`
	Class   string              `xml:"QoS_Class"`
	Adapt   *AdaptationXML      `xml:"Adaptation_Options,omitempty"`
	Price   string              `xml:"Total_Cost,omitempty"`
}

// AdaptationXML is the <Adaptation_Options> element of Table 4.
type AdaptationXML struct {
	Alternative    *AlternativeQoSXML `xml:"Alternative_QoS,omitempty"`
	PromotionOffer string             `xml:"Promotion_Offer,omitempty"`
}

// AlternativeQoSXML is the <Alternative_QoS> element of Table 4.
type AlternativeQoSXML struct {
	CPU       string `xml:"CPU,omitempty"`
	Memory    string `xml:"Memory,omitempty"`
	Disk      string `xml:"Disk,omitempty"`
	Bandwidth string `xml:"Bandwidth,omitempty"`
}

// EncodeDocument renders an established SLA as a Table-4 document.
func EncodeDocument(d *Document) ServiceSLAXML {
	out := ServiceSLAXML{
		SLAID:   string(d.ID),
		Service: d.Service,
		Class:   d.Class.String(),
	}
	if len(d.Spec.Params) > 0 {
		ss := EncodeServiceSpecific(d.Spec, d.Allocated)
		out.Spec = &ss
	}
	if d.Price > 0 {
		out.Price = trimFloat(d.Price)
	}
	var adapt AdaptationXML
	hasAdapt := false
	if d.Adapt.HasAlternative {
		alt := &AlternativeQoSXML{}
		a := d.Adapt.AlternativeQoS
		if a.CPU > 0 {
			alt.CPU = fmt.Sprintf("%s nodes", trimFloat(a.CPU))
		}
		if a.MemoryMB > 0 {
			alt.Memory = fmt.Sprintf("%s MB", trimFloat(a.MemoryMB))
		}
		if a.DiskGB > 0 {
			alt.Disk = fmt.Sprintf("%s GB", trimFloat(a.DiskGB))
		}
		if a.BandwidthMbps > 0 {
			alt.Bandwidth = fmt.Sprintf("%s Mbps", trimFloat(a.BandwidthMbps))
		}
		adapt.Alternative = alt
		hasAdapt = true
	}
	if d.Class == ClassControlledLoad {
		if d.Adapt.PromotionOffers {
			adapt.PromotionOffer = "Accept"
		} else {
			adapt.PromotionOffer = "Decline"
		}
		hasAdapt = true
	}
	if hasAdapt {
		out.Adapt = &adapt
	}
	return out
}

// DecodeDocument parses a Table-4 document into an SLA Document. The
// resulting document is in the Proposed state.
func DecodeDocument(doc ServiceSLAXML) (*Document, error) {
	class, err := ParseClass(strings.TrimSpace(doc.Class))
	if err != nil {
		return nil, err
	}
	d := &Document{
		ID:      ID(strings.TrimSpace(doc.SLAID)),
		Service: strings.TrimSpace(doc.Service),
		Class:   class,
		State:   StateProposed,
	}
	if doc.Spec != nil {
		alloc, spec, err := DecodeServiceSpecific(*doc.Spec)
		if err != nil {
			return nil, err
		}
		d.Spec = spec
		d.Allocated = alloc
	}
	if doc.Price != "" {
		p, err := strconv.ParseFloat(strings.TrimSpace(doc.Price), 64)
		if err != nil {
			return nil, fmt.Errorf("sla: Total_Cost: %w", err)
		}
		d.Price = p
	}
	if doc.Adapt != nil {
		if doc.Adapt.Alternative != nil {
			var alt resource.Capacity
			for _, f := range []struct {
				text string
				set  func(float64)
			}{
				{doc.Adapt.Alternative.CPU, func(v float64) { alt.CPU = v }},
				{doc.Adapt.Alternative.Memory, func(v float64) { alt.MemoryMB = v }},
				{doc.Adapt.Alternative.Disk, func(v float64) { alt.DiskGB = v }},
				{doc.Adapt.Alternative.Bandwidth, func(v float64) { alt.BandwidthMbps = v }},
			} {
				if f.text == "" {
					continue
				}
				v, err := ParseQuantity(f.text)
				if err != nil {
					return nil, fmt.Errorf("sla: Alternative_QoS: %w", err)
				}
				f.set(v)
			}
			d.Adapt.AlternativeQoS = alt
			d.Adapt.HasAlternative = true
			d.Adapt.AcceptDegradation = true
		}
		d.Adapt.PromotionOffers = strings.EqualFold(strings.TrimSpace(doc.Adapt.PromotionOffer), "Accept")
	}
	return d, nil
}

// ParseQuantity extracts the leading numeric quantity from the paper's
// quantity texts: "4 CPU", "64MB", "10 Mbps", "55 nodes on Linux OS",
// "LessThan 10%", "9.5 Mbps", "10ms". It returns an error when no number
// is present.
func ParseQuantity(s string) (float64, error) {
	t := strings.TrimSpace(s)
	// Skip a leading qualifier word such as "LessThan" or "MoreThan".
	for _, prefix := range []string{"LessThan", "MoreThan", "AtLeast", "AtMost"} {
		if strings.HasPrefix(t, prefix) {
			t = strings.TrimSpace(t[len(prefix):])
			break
		}
	}
	end := 0
	seenDigit := false
	for end < len(t) {
		c := t[end]
		if c >= '0' && c <= '9' {
			seenDigit = true
			end++
			continue
		}
		if (c == '.' || c == '-' || c == '+') && !seenDigit && end == 0 || c == '.' {
			end++
			continue
		}
		break
	}
	if !seenDigit {
		return 0, fmt.Errorf("sla: no numeric quantity in %q", s)
	}
	v, err := strconv.ParseFloat(t[:end], 64)
	if err != nil {
		return 0, fmt.Errorf("sla: bad quantity %q: %w", s, err)
	}
	return v, nil
}

// trimFloat formats a float without trailing zeros ("10", "9.5").
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// MarshalIndent renders any of the XML document structs with the two-space
// indentation used throughout the paper's listings.
func MarshalIndent(v any) ([]byte, error) {
	return xml.MarshalIndent(v, "", "  ")
}
