package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fogbuster/pkg/atpg"
)

// TestSeedFlagReachesEngine pins the -seed satellite fix for table3: the
// flag value must land in the public Config (the session derives the
// X-fill streams, the ordering campaign and the splice fills from it).
func TestSeedFlagReachesEngine(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-seed", "-9", "-order", "scoap", "-compact", "-circuit", "s386"}, &stderr)
	if err != nil {
		t.Fatalf("parseArgs: %v (stderr: %s)", err, stderr.String())
	}
	ec := cfg.engineConfig()
	if ec.Seed != -9 {
		t.Fatalf("config Seed = %d, want -9", ec.Seed)
	}
	if ec.Order != atpg.OrderSCOAP {
		t.Fatalf("config Order = %q, want scoap", ec.Order)
	}
	if !ec.Compact || cfg.only != "s386" {
		t.Fatalf("flags lost: compact=%v circuit=%q", ec.Compact, cfg.only)
	}
}

// TestRemovedFlagsRejected: the reference-oracle and scheduling flags
// are gone and must be usage errors, not silently accepted.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-fulleval", "-scalarsearch", "-broadcast", "-steal", "-conesets=auto"} {
		var stderr bytes.Buffer
		if _, err := parseArgs([]string{flag}, &stderr); err == nil {
			t.Errorf("%s accepted", flag)
		}
	}
}

// TestParseArgsRejectsUnknownOrder: a misspelled heuristic fails fast.
func TestParseArgsRejectsUnknownOrder(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parseArgs([]string{"-order", "nope"}, &stderr); err == nil {
		t.Fatal("unknown order accepted")
	}
}

// TestJSONFlagReachesEncoder pins the -json satellite for table3: the
// emitted file must hold one canonical atpg.Result per circuit run,
// decodable through the public types.
func TestJSONFlagReachesEncoder(t *testing.T) {
	out := filepath.Join(t.TempDir(), "table3.json")
	var stdout, stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-circuit", "s27", "-json", out}, &stderr)
	if err != nil {
		t.Fatalf("parseArgs: %v (stderr: %s)", err, stderr.String())
	}
	if code := run(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var results []*atpg.Result
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("emitted JSON does not decode: %v", err)
	}
	if len(results) != 1 || results[0].Circuit != "s27" {
		t.Fatalf("want exactly the s27 result, got %d results", len(results))
	}
	if results[0].Classified() != len(results[0].Faults) {
		t.Fatal("s27 result incoherent")
	}
}

// TestUnknownCircuitFails: a -circuit typo must not pass as an empty
// table.
func TestUnknownCircuitFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-circuit", "s999"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if code := run(cfg, &stdout, &stderr); code == 0 {
		t.Fatal("unknown benchmark name accepted")
	}
	if !strings.Contains(stderr.String(), "s999") {
		t.Fatalf("name not reported: %q", stderr.String())
	}
}
