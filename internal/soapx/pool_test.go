package soapx_test

import (
	"bytes"
	"encoding/xml"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"gqosm/internal/core"
	"gqosm/internal/soapx"
)

type poolPayload struct {
	A string `xml:"a"`
	B int    `xml:"b"`
}

// raceEnabled reports whether the test binary was built with -race: the
// detector makes sync.Pool drop items at random, so a pooled encode no
// longer allocates a fixed count.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// wantEnvelope is the reference encoding: xml.Marshal of v in the envelope.
func wantEnvelope(t *testing.T, v any) []byte {
	t.Helper()
	body, err := xml.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(xml.Header + `<soap:Envelope xmlns:soap="` + soapx.EnvelopeNS + `"><soap:Body>` +
		string(body) + `</soap:Body></soap:Envelope>`)
}

// TestMarshalAllocGate is the deterministic allocation gate for the
// pooled SOAP encode path: with a warm encoder pair what remains is the
// returned slice. A regression that reintroduces an intermediate []byte
// or a fresh xml.Encoder per call pushes this past the gate (measured 1,
// gate measured + 10 %).
func TestMarshalAllocGate(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	p := &poolPayload{A: "hello", B: 42}
	// Warm the pool so the steady state is measured.
	if _, err := soapx.Marshal(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := soapx.Marshal(p); err != nil {
			t.Fatal(err)
		}
	})
	const gate = 1
	if allocs > gate {
		t.Errorf("Marshal allocates %.1f objects per call, gate is %d", allocs, gate)
	}
}

// TestMarshalConcurrentPooling hammers Marshal from many goroutines:
// pooled buffers must never leak one caller's bytes into another's
// output.
func TestMarshalConcurrentPooling(t *testing.T) {
	want, err := soapx.Marshal(&poolPayload{A: "stable", B: 7})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mine, err := soapx.Marshal(&poolPayload{A: "stable", B: 7})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 500; i++ {
				// Interleave other payload shapes to churn the pool.
				if _, err := soapx.Marshal(&poolPayload{A: "other", B: id*1000 + i}); err != nil {
					t.Error(err)
					return
				}
				got, err := soapx.Marshal(&poolPayload{A: "stable", B: 7})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("pooled Marshal output corrupted:\ngot  %s\nwant %s", got, want)
					return
				}
				if !bytes.Equal(mine, want) {
					t.Error("previously returned slice mutated by later Marshal calls")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMarshalBytesMatchXMLMarshal pins the wire bytes: every message the
// broker and its clients exchange, encoded through the pooled pairs with
// the types interleaved so each pair encodes many shapes in turn, is
// byte-identical to xml.Marshal in the envelope.
func TestMarshalBytesMatchXMLMarshal(t *testing.T) {
	msgs := append(soapx.MessageSamples(),
		&core.QoSLevelsXML{SLAID: "site-a-sla-0042", Conforms: true,
			Network: &core.MeasuredNetworkXML{SourceIP: "10.10.3.4", DestIP: "192.200.168.33",
				Bandwidth: "45 Mbps", PacketLoss: "0.1%", Delay: "20 ms"},
			Compute: &core.MeasuredComputeXML{CPU: "10 nodes", Memory: "2048 MB", Disk: "15 GB"}},
		&core.QoSLevelsXML{SLAID: "site-a-sla-0043"})
	rng := rand.New(rand.NewPCG(7, 7))
	for round := 0; round < 20; round++ {
		for _, i := range rng.Perm(len(msgs)) {
			v := msgs[i]
			got, err := soapx.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantEnvelope(t, v); !bytes.Equal(got, want) {
				t.Fatalf("round %d, %T:\ngot  %s\nwant %s", round, v, got, want)
			}
		}
	}
}

// brokenPayload fails to encode after its first field is written, so the
// encoder that tried holds an open element and buffered bytes.
type brokenPayload struct {
	A string   `xml:"a"`
	C chan int `xml:"c"`
}

// TestMarshalErrorDiscardsBuffer checks that a failed encode does not
// poison the pool: the pair that failed holds a partial document and an
// open tag, and the encode after it is still byte-identical to
// xml.Marshal.
func TestMarshalErrorDiscardsBuffer(t *testing.T) {
	for i := 0; i < 3; i++ {
		if _, err := soapx.Marshal(&brokenPayload{A: "partial", C: make(chan int)}); err == nil {
			t.Fatal("Marshal of a channel field succeeded")
		}
		v := &poolPayload{A: "clean", B: i}
		out, err := soapx.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := wantEnvelope(t, v); !bytes.Equal(out, want) {
			t.Fatalf("encode after a failed one:\ngot  %s\nwant %s", out, want)
		}
	}
}
