// Circstat prints size statistics and the delay fault universe for
// circuits: either .bench files given as arguments, or (with no
// arguments) the full Table 3 benchmark set (-large appends the
// industrial s15850/s38584-class profiles). Each table row also shows
// the fanout-cone size distribution as a share of the gate count, and
// file mode additionally reports the per-level gate histogram — the
// numbers that predict how much the event-driven selective-trace kernel
// saves over full levelized simulation (small median cone = large win).
// It consumes the circuit model exclusively through the public
// fogbuster/pkg/atpg API.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fogbuster/pkg/atpg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("circstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("circuit", "", "table mode: print only the named benchmark (e.g. s27)")
	large := fs.Bool("large", false, "table mode: include the industrial-scale benchmarks (s15850, s38584)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: circstat [file.bench ...]\n")
		fmt.Fprintf(stderr, "With no arguments, prints the Table 3 benchmark set.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if fs.NArg() == 0 {
		fmt.Fprintf(stdout, "%-8s %5s %5s %5s %7s %7s %9s %7s %7s %7s %6s %6s %6s\n",
			"circuit", "pi", "po", "dff", "gates", "stems", "branches", "lines", "faults", "depth",
			"cmin%", "cmed%", "cmax%")
		set := atpg.Benchmarks()
		if *large {
			set = append(set, atpg.LargeBenchmarks()...)
		}
		matched := 0
		for _, b := range set {
			if *only != "" && b.Name != *only {
				continue
			}
			matched++
			c, err := atpg.Benchmark(b.Name)
			if err != nil {
				fmt.Fprintf(stderr, "circstat: %v\n", err)
				return 1
			}
			s := c.Stats()
			note := " (synthetic)"
			if b.Exact {
				note = " (exact)"
			}
			lo, med, hi := c.ConeSizes()
			fmt.Fprintf(stdout, "%-8s %5d %5d %5d %7d %7d %9d %7d %7d %7d %5.1f%% %5.1f%% %5.1f%%%s\n",
				s.Name, s.PIs, s.POs, s.DFFs, s.Gates, s.Stems, s.Branches, s.Lines, s.Faults, s.MaxLevel,
				pct(lo, s.Gates), pct(med, s.Gates), pct(hi, s.Gates), note)
		}
		if matched == 0 {
			fmt.Fprintf(stderr, "circstat: no benchmark named %q (see the table for valid names)\n", *only)
			return 1
		}
		return 0
	}
	for _, path := range fs.Args() {
		c, err := atpg.LoadBench(path)
		if err != nil {
			fmt.Fprintf(stderr, "circstat: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, c.Stats())
		topoReport(stdout, c)
	}
	return 0
}

// topoReport prints the per-level gate histogram and the fanout-cone
// size distribution of the circuit.
func topoReport(w io.Writer, c *atpg.Circuit) {
	fmt.Fprintf(w, "  gates per level:")
	for l, n := range c.GatesPerLevel() {
		fmt.Fprintf(w, " %d:%d", l+1, n)
	}
	fmt.Fprintln(w)
	lo, med, hi := c.ConeSizes()
	g := c.Stats().Gates
	fmt.Fprintf(w, "  fanout cones (gates): min %d median %d max %d of %d (%.1f%% / %.1f%% / %.1f%%)\n",
		lo, med, hi, g, pct(lo, g), pct(med, g), pct(hi, g))
}

// pct returns n as a percentage of total, and 0 for a circuit without
// gates.
func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
