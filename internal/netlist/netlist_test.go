package netlist

import (
	"strings"
	"testing"
)

const s27Src = `
# s27 (exact ISCAS'89 netlist)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
`

func parseS27(t *testing.T) *Circuit {
	t.Helper()
	c, err := Parse("s27", s27Src)
	if err != nil {
		t.Fatalf("Parse(s27): %v", err)
	}
	return c
}

// TestS27Stats pins the fault-universe arithmetic against the paper: s27
// has 39 tested + 11 untestable = 50 delay faults, i.e. 25 lines.
func TestS27Stats(t *testing.T) {
	c := parseS27(t)
	s := c.Stats()
	if s.PIs != 4 || s.POs != 1 || s.DFFs != 3 || s.Gates != 10 {
		t.Fatalf("structure: %+v", s)
	}
	if s.Stems != 17 || s.Branches != 8 || s.Lines != 25 {
		t.Fatalf("lines: %+v (want 17 stems, 8 branches, 25 lines)", s)
	}
	if got := c.NumLines(); got != 25 {
		t.Fatalf("NumLines = %d, want 25", got)
	}
	if got := len(c.Lines()); got != 25 {
		t.Fatalf("len(Lines) = %d, want 25", got)
	}
}

func TestS27Structure(t *testing.T) {
	c := parseS27(t)
	g8 := c.Lookup("G8")
	if g8 == nil || g8.Type != And || len(g8.Fanin) != 2 {
		t.Fatalf("G8 malformed: %+v", g8)
	}
	if len(g8.Fanout) != 2 {
		t.Fatalf("G8 fanout = %d, want 2", len(g8.Fanout))
	}
	if c.Lookup("G5").Type != DFF {
		t.Fatal("G5 should be a DFF")
	}
	ppos := c.PPOs()
	if len(ppos) != 3 {
		t.Fatalf("PPOs = %d, want 3", len(ppos))
	}
	wantPPO := map[string]bool{"G10": true, "G11": true, "G13": true}
	for _, id := range ppos {
		if !wantPPO[c.Node(id).Name] {
			t.Errorf("unexpected PPO %s", c.Node(id).Name)
		}
	}
	// Levelization: G8 depends on G14 (level 1), so G8 is level 2.
	if l := c.Lookup("G14").Level; l != 1 {
		t.Errorf("G14 level = %d, want 1", l)
	}
	if l := g8.Level; l != 2 {
		t.Errorf("G8 level = %d, want 2", l)
	}
	// Topological order covers all 10 gates and respects fanin order.
	order := c.GateOrder()
	if len(order) != 10 {
		t.Fatalf("gate order has %d entries, want 10", len(order))
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		for _, in := range c.Node(id).Fanin {
			if inn := c.Node(in); inn.Type.IsGate() && pos[in] >= pos[id] {
				t.Errorf("order violation: %s before %s", c.Node(id).Name, inn.Name)
			}
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c := parseS27(t)
	c2, err := Parse("s27rt", c.Bench())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	s1, s2 := c.Stats(), c2.Stats()
	s1.Name, s2.Name = "", ""
	if s1 != s2 {
		t.Fatalf("round trip changed stats:\n%+v\n%+v", s1, s2)
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		m := c2.Lookup(n.Name)
		if m == nil || m.Type != n.Type || len(m.Fanin) != len(n.Fanin) {
			t.Fatalf("node %s differs after round trip", n.Name)
		}
	}
}

func TestLineNames(t *testing.T) {
	c := parseS27(t)
	g8 := c.LookupID("G8")
	if got := c.LineName(Stem(g8)); got != "G8" {
		t.Errorf("stem name = %q", got)
	}
	branch := Line{Node: g8, Branch: 0}
	name := c.LineName(branch)
	if name != "G8->G15" && name != "G8->G16" {
		t.Errorf("branch name = %q", name)
	}
	if Stem(g8).IsStem() != true || branch.IsStem() {
		t.Error("IsStem broken")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown gate":  "a = FROB(b)\nINPUT(b)\n",
		"undefined sig": "INPUT(a)\nc = AND(a, b)\n",
		"redefined":     "INPUT(a)\na = NOT(a)\n",
		"bad arity not": "INPUT(a)\nINPUT(b)\nc = NOT(a, b)\n",
		"bad arity and": "INPUT(a)\nc = AND(a)\n",
		"garbage":       "this is not bench\n",
		"empty fanin":   "INPUT(a)\nc = AND(a, )\n",
		"bad output":    "INPUT(a)\nOUTPUT(zz)\nb = NOT(a)\n",
		"comb cycle":    "INPUT(a)\nx = AND(a, y)\ny = AND(a, x)\nOUTPUT(y)\n",
	}
	for name, src := range cases {
		if _, err := Parse(name, src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseTolerance(t *testing.T) {
	src := "  input ( a ) \n b=not( a )# trailing comment\nOUTPUT(b)\r\n"
	c, err := Parse("tolerant", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(c.PIs) != 1 || len(c.POs) != 1 || c.NumGates() != 1 {
		t.Fatalf("structure: %v", c.Stats())
	}
}

func TestSequentialLoopAllowed(t *testing.T) {
	// DFFs break cycles: a classic feedback latch structure must parse.
	src := `
INPUT(en)
OUTPUT(q)
s = DFF(d)
d = AND(en, nq)
nq = NOT(s)
q = BUFF(s)
`
	c, err := Parse("loop", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Lookup("s").Level != 0 {
		t.Error("DFF output should be level 0")
	}
}

func TestBuilderDuplicateFanin(t *testing.T) {
	b := NewBuilder("dup")
	b.Input("a")
	b.Gate("x", And, "a", "a")
	b.Output("x")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The same signal used twice yields two fanout branches.
	if got := len(c.Lookup("a").Fanout); got != 2 {
		t.Fatalf("fanout of a = %d, want 2", got)
	}
	if s := c.Stats(); s.Branches != 2 || s.Lines != 4 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestStatsString(t *testing.T) {
	c := parseS27(t)
	s := c.Stats().String()
	for _, want := range []string{"pi=4", "dff=3", "lines=25", "faults=50"} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String() = %q missing %q", s, want)
		}
	}
}
