package rsl

import (
	"errors"
	"strings"
	"testing"
)

// FuzzRSL fuzzes the parser with arbitrary specifications. Two
// properties are enforced:
//
//  1. Rejections are typed: Parse never fails with anything but a
//     *ParseError (carrying a valid offset into the input) or ErrEmpty —
//     and in particular never panics.
//  2. Printing round-trips: String() of an accepted tree re-parses to a
//     structurally equal tree (the canonical-form contract String
//     documents).
//
// Corpus under testdata/fuzz/FuzzRSL; grow it with `go test -fuzz=FuzzRSL`.
func FuzzRSL(f *testing.F) {
	for _, seed := range []string{
		`&(count=10)(memory>=2048)(disk=15)(label="sla-3")`,
		`&(reservation-type="compute")(count=10)(memory=2048)(disk=15)`,
		`+(&(reservation-type="compute")(count=10))` +
			`(&(reservation-type="network")(bandwidth=622))`,
		`|(count=4)(count=8)`,
		`x!=-1.5e3`,
		`a="quo""ted"`,
		`&()`,
		`(((`,
		``,
		`   `,
		`&(a=1)trailing`,
	} {
		f.Add(seed)
	}
	for _, tc := range quotedValueCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, input string) {
		node, err := Parse(input)
		if err != nil {
			var pe *ParseError
			switch {
			case errors.As(err, &pe):
				if pe.Offset < 0 || pe.Offset > len(input) {
					t.Fatalf("ParseError offset %d outside input of length %d", pe.Offset, len(input))
				}
			case errors.Is(err, ErrEmpty):
				if strings.TrimSpace(input) != "" {
					t.Fatalf("ErrEmpty for non-blank input %q", input)
				}
			default:
				t.Fatalf("Parse(%q) failed with untyped error %v", input, err)
			}
			return
		}
		printed := node.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) does not re-parse: %v", printed, input, err)
		}
		if !node.Equal(again) {
			t.Fatalf("round-trip changed the tree:\ninput  %q\nprint  %q\nreprint %q",
				input, printed, again.String())
		}
	})
}
