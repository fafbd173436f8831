// Package xmlmsg defines the XML wire messages exchanged between clients
// and the AQoS broker ("all interactions are encoded as XML messages",
// §2.1): the service_request of Fig. 7, the broker's service offer, SLA
// accept/reject, invocation, the explicit SLA verification request, and
// best-effort requests. The SLA and QoS-level documents themselves (Tables
// 1, 3, 4) live in the sla and core packages; this package carries them.
package xmlmsg

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// TimeLayout is the timestamp format on the wire.
const TimeLayout = time.RFC3339

// QoSParamXML is one requested QoS parameter: an exact value, a range, or
// a list, as §5.3 allows.
type QoSParamXML struct {
	// Name is the dimension: "cpu", "memory-mb", "disk-gb",
	// "bandwidth-mbps".
	Name string `xml:"name,attr"`
	// Exactly one of the following is set.
	Exact  string `xml:"Exact,omitempty"`
	Min    string `xml:"Min,omitempty"`
	Max    string `xml:"Max,omitempty"`
	Values string `xml:"Values,omitempty"` // comma-separated list
}

// ServiceRequestXML is the client's service_request message (Fig. 7).
type ServiceRequestXML struct {
	XMLName  xml.Name      `xml:"service_request"`
	Service  string        `xml:"Service_Name"`
	Client   string        `xml:"Client"`
	Class    string        `xml:"QoS_Class"`
	Params   []QoSParamXML `xml:"QoS_Specification>Parameter"`
	SourceIP string        `xml:"Network>Source_IP,omitempty"`
	DestIP   string        `xml:"Network>Dest_IP,omitempty"`
	MaxLoss  string        `xml:"Network>Packet_Loss,omitempty"`
	Start    string        `xml:"Reservation>Start"`
	End      string        `xml:"Reservation>End"`
	Budget   float64       `xml:"Budget,omitempty"`
	// Adaptation options (§5.2).
	AcceptDegradation bool `xml:"Adaptation_Options>Accept_Degradation,omitempty"`
	AcceptTermination bool `xml:"Adaptation_Options>Accept_Termination,omitempty"`
	PromotionOptIn    bool `xml:"Adaptation_Options>Promotion_Offer,omitempty"`
}

// ServiceOfferXML is the broker's reply: a proposed SLA, its price, and
// the confirmation deadline.
type ServiceOfferXML struct {
	XMLName xml.Name          `xml:"service_offer"`
	SLA     sla.ServiceSLAXML `xml:"Service_SLA"`
	Price   float64           `xml:"Price"`
	Expires string            `xml:"Expires"`
	// Domain names the administrative domain whose broker holds the
	// proposed session — relevant for federated deployments where a
	// neighbor served the request.
	Domain string `xml:"Domain,omitempty"`
}

// SLAActionXML accepts or rejects a proposed SLA, requests invocation or
// termination, or asks for an explicit verification test — the four
// client-side actions of Fig. 7.
type SLAActionXML struct {
	XMLName xml.Name `xml:"sla_action"`
	SLAID   string   `xml:"SLA-ID"`
	// Action is "accept", "reject", "invoke", "terminate", "verify" or
	// "accept_promotion".
	Action string `xml:"Action"`
	Reason string `xml:"Reason,omitempty"`
}

// AckXML acknowledges an action.
type AckXML struct {
	XMLName xml.Name `xml:"ack"`
	OK      bool     `xml:"ok"`
	Detail  string   `xml:"detail,omitempty"`
}

// RenegotiateRequestXML renegotiates a live session's QoS specification
// (the Fig. 3 "QoS Renegotiation" function).
type RenegotiateRequestXML struct {
	XMLName  xml.Name      `xml:"renegotiate_request"`
	SLAID    string        `xml:"SLA-ID"`
	Params   []QoSParamXML `xml:"QoS_Specification>Parameter"`
	SourceIP string        `xml:"Network>Source_IP,omitempty"`
	DestIP   string        `xml:"Network>Dest_IP,omitempty"`
	MaxLoss  string        `xml:"Network>Packet_Loss,omitempty"`
}

// BestEffortRequestXML asks for best-effort capacity (no SLA).
type BestEffortRequestXML struct {
	XMLName xml.Name `xml:"best_effort_request"`
	Client  string   `xml:"Client"`
	CPU     float64  `xml:"CPU,omitempty"`
	Memory  float64  `xml:"Memory_MB,omitempty"`
	Disk    float64  `xml:"Disk_GB,omitempty"`
	// Release releases the client's capacity instead of requesting.
	Release bool `xml:"Release,omitempty"`
}

// LoadReportRequestXML asks a broker for its current load — what `qosctl
// load` prints and the per-broker block of a cluster report carries; the
// load_report reply is core.LoadReport itself.
type LoadReportRequestXML struct {
	XMLName xml.Name `xml:"load_report_request"`
}

// EncodeRequest converts broker-level request fields to the wire form.
// (The core package converts back; this package stays dependency-light.)
func EncodeSpec(spec sla.Spec) []QoSParamXML {
	kinds := spec.Kinds()
	out := make([]QoSParamXML, 0, len(kinds))
	for _, k := range kinds {
		p := spec.Params[k]
		x := QoSParamXML{Name: k.String()}
		switch p.Form {
		case sla.FormExact:
			x.Exact = trimFloat(p.Exact)
		case sla.FormRange:
			x.Min, x.Max = trimFloat(p.Min), trimFloat(p.Max)
		case sla.FormList:
			parts := make([]string, len(p.Values))
			for i, v := range p.Values {
				parts[i] = trimFloat(v)
			}
			x.Values = strings.Join(parts, ",")
		}
		out = append(out, x)
	}
	return out
}

// DecodeSpec converts wire parameters back to an sla.Spec.
func DecodeSpec(params []QoSParamXML, sourceIP, destIP, maxLoss string) (sla.Spec, error) {
	spec := sla.Spec{Params: make(map[resource.Kind]sla.Param, len(params))}
	for _, x := range params {
		kind, err := kindOf(x.Name)
		if err != nil {
			return sla.Spec{}, err
		}
		switch {
		case x.Exact != "":
			v, err := sla.ParseQuantity(x.Exact)
			if err != nil {
				return sla.Spec{}, err
			}
			spec.Params[kind] = sla.Exact(kind, v)
		case x.Values != "":
			var vals []float64
			for _, part := range strings.Split(x.Values, ",") {
				v, err := sla.ParseQuantity(part)
				if err != nil {
					return sla.Spec{}, err
				}
				vals = append(vals, v)
			}
			spec.Params[kind] = sla.List(kind, vals...)
		case x.Min != "" || x.Max != "":
			min, err := sla.ParseQuantity(x.Min)
			if err != nil {
				return sla.Spec{}, err
			}
			max, err := sla.ParseQuantity(x.Max)
			if err != nil {
				return sla.Spec{}, err
			}
			spec.Params[kind] = sla.Range(kind, min, max)
		default:
			return sla.Spec{}, fmt.Errorf("xmlmsg: parameter %q has no value form", x.Name)
		}
	}
	spec.SourceIP = strings.TrimSpace(sourceIP)
	spec.DestIP = strings.TrimSpace(destIP)
	if maxLoss != "" {
		v, err := sla.ParseQuantity(maxLoss)
		if err != nil {
			return sla.Spec{}, err
		}
		spec.MaxPacketLossPct = v
	}
	return spec, nil
}

func kindOf(name string) (resource.Kind, error) {
	switch strings.TrimSpace(name) {
	case "cpu":
		return resource.CPU, nil
	case "memory-mb":
		return resource.MemoryMB, nil
	case "disk-gb":
		return resource.DiskGB, nil
	case "bandwidth-mbps":
		return resource.BandwidthMbps, nil
	default:
		return 0, fmt.Errorf("xmlmsg: unknown parameter name %q", name)
	}
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
