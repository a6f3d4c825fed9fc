package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// twoGateBench is a minimal netlist with a fanout stem so the file-mode
// report exercises branches and multi-gate cones.
const twoGateBench = `# two
INPUT(A)
INPUT(B)
OUTPUT(X)
OUTPUT(Y)
N = NAND(A, B)
X = AND(N, A)
Y = OR(N, B)
`

// wireBench has no gates at all: one input wired straight to an output.
const wireBench = `INPUT(a)
OUTPUT(a)
`

// TestFileMode runs circstat on .bench files and checks the classic
// stats line plus the topology report: the level histogram and the
// fanout-cone distribution. A gateless netlist reports its cone shares
// as 0.0%, not NaN%.
func TestFileMode(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string
	}{
		{"two", twoGateBench, []string{"gates=3", "gates per level:", "fanout cones (gates):"}},
		{"wire", wireBench, []string{"gates=0", "fanout cones (gates): min 0 median 0 max 0 of 0 (0.0% / 0.0% / 0.0%)"}},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), tc.name+".bench")
		if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: run = %d, stderr: %s", tc.name, code, stderr.String())
		}
		out := stdout.String()
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output missing %q:\n%s", tc.name, want, out)
			}
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("%s: output has NaN:\n%s", tc.name, out)
		}
	}
}

// TestTableMode runs the no-argument benchmark table, filtered to the
// exact s27 profile so the test stays cheap, and checks the cone
// columns are present.
func TestTableMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-circuit", "s27"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "cmed%") || !strings.Contains(out, "s27") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	if !strings.Contains(out, "(exact)") {
		t.Fatalf("s27 row should be marked exact:\n%s", out)
	}
}

// TestBadFile: a missing file fails with a nonzero exit code and a
// message on stderr.
func TestBadFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"/nonexistent/x.bench"}, &stdout, &stderr); code == 0 {
		t.Fatal("missing file accepted")
	}
	if !strings.Contains(stderr.String(), "circstat:") {
		t.Fatalf("error not reported: %q", stderr.String())
	}
}

// TestUnknownCircuit: a -circuit typo must not pass as an empty table.
func TestUnknownCircuit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-circuit", "s127"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown benchmark name accepted")
	}
	if !strings.Contains(stderr.String(), "s127") {
		t.Fatalf("name not reported: %q", stderr.String())
	}
}
