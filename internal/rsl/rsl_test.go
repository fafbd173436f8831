package rsl

import (
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return n
}

func TestParseRelation(t *testing.T) {
	tests := []struct {
		src  string
		attr string
		op   Op
		num  float64
	}{
		{"count=10", "count", OpEq, 10},
		{"memory>=2048", "memory", OpGe, 2048},
		{"disk<=15", "disk", OpLe, 15},
		{"loss<0.1", "loss", OpLt, 0.1},
		{"bw>45", "bw", OpGt, 45},
		{"nodes!=0", "nodes", OpNe, 0},
		{" count = 10 ", "count", OpEq, 10},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			n := mustParse(t, tt.src)
			if n.Kind != KindRelation || n.Attribute != tt.attr || n.Op != tt.op {
				t.Fatalf("got %+v", n)
			}
			if !n.Value.IsNum || n.Value.Num != tt.num {
				t.Fatalf("value = %+v, want %g", n.Value, tt.num)
			}
		})
	}
}

func TestParseConjunction(t *testing.T) {
	n := mustParse(t, `&(count=10)(memory=2048)(disk=15)(label="sla-3")`)
	if n.Kind != KindConjunction || len(n.Children) != 4 {
		t.Fatalf("got %+v", n)
	}
	if got := n.Num("count", -1); got != 10 {
		t.Errorf("Num(count) = %g", got)
	}
	if got := n.Str("label", ""); got != "sla-3" {
		t.Errorf("Str(label) = %q", got)
	}
	if got := n.Str("missing", "dflt"); got != "dflt" {
		t.Errorf("Str(missing) = %q", got)
	}
	if got := n.Num("label", -1); got != -1 {
		t.Errorf("Num on string attr = %g, want default", got)
	}
}

func TestParseDisjunctionAndNesting(t *testing.T) {
	n := mustParse(t, `|(&(count=10)(memory=2048))(&(count=5)(memory=1024))`)
	if n.Kind != KindDisjunction || len(n.Children) != 2 {
		t.Fatalf("got %+v", n)
	}
	if n.Children[0].Kind != KindConjunction {
		t.Fatalf("child kind = %v", n.Children[0].Kind)
	}
}

func TestParseMultiRequest(t *testing.T) {
	n := mustParse(t, `+(&(type="cpu")(count=10))(&(type="network")(bandwidth=622))`)
	if n.Kind != KindMultiRequest {
		t.Fatalf("kind = %v", n.Kind)
	}
	subs := n.SubRequests()
	if len(subs) != 2 {
		t.Fatalf("SubRequests = %d", len(subs))
	}
	if subs[0].Str("type", "") != "cpu" || subs[1].Str("type", "") != "network" {
		t.Fatalf("sub types wrong: %v, %v", subs[0], subs[1])
	}
	// SubRequests of a non-multirequest is the node itself.
	single := mustParse(t, "count=1")
	if s := single.SubRequests(); len(s) != 1 || s[0] != single {
		t.Fatalf("SubRequests(single) = %v", s)
	}
}

func TestParseQuotedStrings(t *testing.T) {
	n := mustParse(t, `&(executable="/bin/sim run")(note="say ""hi""")`)
	if got := n.Str("executable", ""); got != "/bin/sim run" {
		t.Errorf("executable = %q", got)
	}
	if got := n.Str("note", ""); got != `say "hi"` {
		t.Errorf("note = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []string{
		"",
		"   ",
		"&",
		"&()",
		"&(count=10",
		"count=",
		"=10",
		"count 10",
		`label="unterminated`,
		"&(count=10)(", // dangling open paren
		"count=10 extra",
	}
	for _, src := range tests {
		t.Run(src, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", src)
			}
		})
	}
	if _, err := Parse(""); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	var pe *ParseError
	_, err := Parse("&(count=10)(bad")
	if !errors.As(err, &pe) {
		t.Fatalf("err %v is not a *ParseError", err)
	}
	if pe.Offset == 0 || !strings.Contains(pe.Error(), "offset") {
		t.Errorf("ParseError = %v", pe)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"count=10",
		`&(count=10)(memory>=2048)(label="sla-3")`,
		`|(&(count=10))(&(count=5))`,
		`+(&(type="cpu")(count=10))(&(type="network")(bandwidth=622))`,
		`note="say ""hi"""`,
	}
	for _, src := range srcs {
		n := mustParse(t, src)
		again := mustParse(t, n.String())
		if !n.Equal(again) {
			t.Errorf("round trip of %q: %q parses differently", src, n.String())
		}
	}
}

// Property: printing any randomly generated tree and re-parsing yields an
// equal tree.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		n := randNode(rng, 3)
		again, err := Parse(n.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", n.String(), err)
		}
		if !n.Equal(again) {
			t.Fatalf("round trip mismatch: %q", n.String())
		}
	}
}

func randNode(rng *rand.Rand, depth int) *Node {
	if depth == 0 || rng.Intn(3) == 0 {
		attrs := []string{"count", "memory", "disk", "bandwidth", "label", "host-type"}
		ops := []Op{OpEq, OpNe, OpGt, OpGe, OpLt, OpLe}
		n := &Node{
			Kind:      KindRelation,
			Attribute: attrs[rng.Intn(len(attrs))],
			Op:        ops[rng.Intn(len(ops))],
		}
		if rng.Intn(2) == 0 {
			n.Value = numValue(float64(rng.Intn(1000)))
		} else {
			words := []string{"linux", "sgi", "site-a", "with space", `qu"ote`}
			n.Value = strValue(words[rng.Intn(len(words))])
		}
		return n
	}
	kinds := []NodeKind{KindConjunction, KindDisjunction, KindMultiRequest}
	n := &Node{Kind: kinds[rng.Intn(len(kinds))]}
	for i := 0; i < 1+rng.Intn(3); i++ {
		n.Children = append(n.Children, randNode(rng, depth-1))
	}
	return n
}

func TestEval(t *testing.T) {
	spec := mustParse(t, `&(count>=10)(memory>=2048)(os="linux")`)
	tests := []struct {
		name string
		b    Bindings
		want bool
	}{
		{"satisfies", Bindings{"count": numValue(26), "memory": numValue(10240), "os": strValue("linux")}, true},
		{"count too low", Bindings{"count": numValue(4), "memory": numValue(10240), "os": strValue("linux")}, false},
		{"wrong os", Bindings{"count": numValue(26), "memory": numValue(10240), "os": strValue("irix")}, false},
		{"missing attr", Bindings{"count": numValue(26), "memory": numValue(10240)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := spec.Eval(tt.b); got != tt.want {
				t.Errorf("Eval = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEvalDisjunction(t *testing.T) {
	spec := mustParse(t, `|(count>=20)(memory>=8192)`)
	if !spec.Eval(Bindings{"count": numValue(26)}) {
		t.Error("first branch should satisfy")
	}
	if !spec.Eval(Bindings{"memory": numValue(9000)}) {
		t.Error("second branch should satisfy")
	}
	if spec.Eval(Bindings{"count": numValue(1), "memory": numValue(1)}) {
		t.Error("neither branch should satisfy")
	}
}

func TestEvalOperators(t *testing.T) {
	b := Bindings{"x": numValue(5), "s": strValue("m")}
	tests := []struct {
		src  string
		want bool
	}{
		{"x=5", true}, {"x=6", false},
		{"x!=5", false}, {"x!=6", true},
		{"x>4", true}, {"x>5", false},
		{"x>=5", true}, {"x>=6", false},
		{"x<6", true}, {"x<5", false},
		{"x<=5", true}, {"x<=4", false},
		{`s="m"`, true}, {`s!="m"`, false},
		{`s>"a"`, true}, {`s<"a"`, false},
		{`s>="m"`, true}, {`s<="m"`, true},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			if got := mustParse(t, tt.src).Eval(b); got != tt.want {
				t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
			}
		})
	}
}

// TestAttributes holds the walk under Lookup, Num and Str to every relation
// of every sub-request of a multirequest.
func TestAttributes(t *testing.T) {
	n := mustParse(t, `+(&(type="cpu")(count=10))(&(type="network")(bandwidth=622))`)
	var got []string
	n.walk(func(r *Node) {
		if r.Kind == KindRelation {
			got = append(got, r.Attribute)
		}
	})
	if want := []string{"type", "count", "type", "bandwidth"}; !slices.Equal(got, want) {
		t.Fatalf("walk visited %v, want %v", got, want)
	}
}

// numValue and strValue are the literals a binding or a hand-built
// relation carries, as the parser would have produced them.
func numValue(f float64) Value {
	return Value{Raw: strconv.FormatFloat(f, 'g', -1, 64), Num: f, IsNum: true}
}

func strValue(s string) Value { return Value{Raw: s, WasQuote: true} }

// TestBuilders: a tree assembled from Node literals renders and
// evaluates like a parsed one.
func TestBuilders(t *testing.T) {
	rel := func(attr string, op Op, v Value) *Node {
		return &Node{Kind: KindRelation, Attribute: attr, Op: op, Value: v}
	}
	n := &Node{Kind: KindConjunction, Children: []*Node{
		rel("count", OpEq, numValue(10)), rel("os", OpEq, strValue("linux")), rel("memory", OpGe, numValue(64))}}
	want := `&(count=10)(os="linux")(memory>=64)`
	if n.String() != want {
		t.Errorf("built = %q, want %q", n.String(), want)
	}
	if !n.Eval(Bindings{"count": numValue(10), "os": strValue("linux"), "memory": numValue(128)}) {
		t.Error("built spec should evaluate true")
	}
}

func TestLookupFirstMatchWins(t *testing.T) {
	n := mustParse(t, `&(count=10)(count=20)`)
	v, ok := n.Lookup("count")
	if !ok || v.Num != 10 {
		t.Errorf("Lookup = %v, %v; want first relation (10)", v, ok)
	}
	if _, ok := n.Lookup("absent"); ok {
		t.Error("Lookup(absent) found something")
	}
	// Non-equality relations are not treated as parameter carriers.
	ge := mustParse(t, "count>=10")
	if _, ok := ge.Lookup("count"); ok {
		t.Error("Lookup matched a >= relation")
	}
}

func TestOpStringUnknown(t *testing.T) {
	if got := Op(0).String(); got != "op(0)" {
		t.Errorf("Op(0) = %q", got)
	}
}

// TestNonFiniteWordsStayStrings pins the lexer's numeric classification:
// strconv.ParseFloat accepts "inf"/"nan" spellings (and returns ±Inf for
// overflow literals with ErrRange), but none of them are usable numbers —
// a non-finite Num poisons evaluator comparisons and any capacity math
// reading the value through Num(). They must stay string values.
func TestNonFiniteWordsStayStrings(t *testing.T) {
	for _, word := range []string{
		"inf", "Inf", "INF", "-inf", "infinity", "Infinity",
		"nan", "NaN", "NAN", "1e999", "-1e999", "0x1p99999",
	} {
		n := mustParse(t, "count="+word)
		if n.Value.IsNum {
			t.Errorf("%q classified as numeric (Num=%v)", word, n.Value.Num)
		}
		if n.Value.Raw != word {
			t.Errorf("%q: Raw = %q", word, n.Value.Raw)
		}
	}
	// Finite spellings keep working, including explicit signs.
	for word, want := range map[string]float64{
		"+5": 5, "-3.5": -3.5, "1e3": 1000, "0x1p4": 16,
	} {
		n := mustParse(t, "count="+word)
		if !n.Value.IsNum || n.Value.Num != want {
			t.Errorf("%q: IsNum=%v Num=%v, want %v", word, n.Value.IsNum, n.Value.Num, want)
		}
	}
}

// TestNonFiniteRoundTrip checks String() → Parse round-trips for the
// rejected words: they render as bare words and re-parse equal.
func TestNonFiniteRoundTrip(t *testing.T) {
	for _, src := range []string{
		`&(count=inf)(label="x")`,
		`&(count=nan)`,
		`&(count=1e999)`,
	} {
		n := mustParse(t, src)
		back := mustParse(t, n.String())
		if !n.Equal(back) {
			t.Errorf("round trip of %q: %q not Equal", src, n.String())
		}
	}
}

// TestNonFiniteEvaluator demonstrates the bug's blast radius: before the
// fix, `count=inf` parsed as Num=+Inf, so Num("count", def) handed +Inf to
// capacity math; now the value is a string and the default applies.
func TestNonFiniteEvaluator(t *testing.T) {
	n := mustParse(t, `&(reservation-type="compute")(count=inf)`)
	if got := n.Num("count", 0); got != 0 {
		t.Fatalf("Num(count) = %v, want default 0 for non-finite literal", got)
	}
	nan := mustParse(t, `count=nan`)
	if nan.Value.IsNum {
		t.Fatal("nan is numeric")
	}
	// String comparison semantics apply to the unparseable word.
	if !nan.Eval(Bindings{"count": {Raw: "nan"}}) {
		t.Fatal("string equality on the raw word should hold")
	}
	if nan.Eval(Bindings{"count": numValue(4)}) {
		t.Fatal(`"4" = "nan" should be false under string comparison`)
	}
}
