// Command partialfaults runs the full fault-analysis pipeline of the
// paper: inject every simulated open, sweep every floating-voltage
// group over the (R_def, U) plane for the static SOSes, identify partial
// faults, search completing operations, and print the resulting
// inventory — our reproduction of Table 1.
//
// Usage:
//
//	partialfaults [-engine behav|spice] [-opens 1,3,4,5] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/numeric"
	"github.com/memtest/partialfaults/internal/report"
)

func main() {
	var (
		engine  = flag.String("engine", "behav", "simulation engine: behav (analytical) or spice (transient)")
		opens   = flag.String("opens", "", "comma-separated open numbers (default: all simulated opens)")
		quick   = flag.Bool("quick", false, "coarser grid for a fast run")
		verbose = flag.Bool("v", false, "print pipeline progress")
		doLint  = flag.Bool("lint", false, "run the static-analysis pre-flight and abort on errors")
	)
	flag.Parse()

	if *doLint {
		preflight()
	}

	var factory analysis.Factory
	switch *engine {
	case "behav":
		factory = behav.NewFactory(behav.DefaultParams())
	case "spice":
		factory = analysis.NewPooledSpiceFactory(dram.Default())
	default:
		fatalf("unknown engine %q", *engine)
	}

	cfg := analysis.InventoryConfig{
		Factory: factory,
		RDefs:   numeric.Logspace(1e3, 1e8, 11),
		Us:      numeric.Linspace(0, 4.6, 8),
	}
	if *quick {
		cfg.RDefs = numeric.Logspace(1e4, 1e8, 5)
		cfg.Us = numeric.Linspace(0, 4.6, 4)
	}
	if *verbose {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if *opens != "" {
		for _, tok := range strings.Split(*opens, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fatalf("bad -opens entry %q", tok)
			}
			o, ok := defect.ByID(id)
			if !ok {
				fatalf("unknown open %d", id)
			}
			cfg.Opens = append(cfg.Opens, o)
		}
	}

	rows, err := analysis.BuildInventory(cfg)
	if err != nil {
		fatalf("pipeline: %v", err)
	}
	fmt.Println("Partial faults observed in DRAM simulation (reproduction of Table 1):")
	fmt.Println()
	if err := report.WriteInventory(os.Stdout, rows); err != nil {
		fatalf("report: %v", err)
	}
	possible, impossible := 0, 0
	for _, r := range rows {
		if r.Possible {
			possible++
		} else {
			impossible++
		}
	}
	fmt.Printf("\n%d partial faults found; %d completed, %d not completable by memory operations\n",
		len(rows), possible, impossible)

	matches, exact, ffmOnly := analysis.CompareWithPaper(rows)
	fmt.Printf("\nComparison with the paper's published Table 1 (%d exact, %d FFM-only, %d rows):\n\n",
		exact, ffmOnly, len(matches))
	fmt.Print(analysis.SummarizeComparison(matches))
}

// preflight runs the static netlist, inventory and march checks and
// aborts before the pipeline when they find an error.
func preflight() {
	findings, err := analysis.Preflight(dram.Default())
	if err != nil {
		fatalf("lint: %v", err)
	}
	if err := report.WriteFindings(os.Stderr, findings, lint.Warning); err != nil {
		fatalf("lint: %v", err)
	}
	if findings.Count(lint.Error) > 0 {
		fatalf("lint: static analysis failed; not running the pipeline")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "partialfaults: "+format+"\n", args...)
	os.Exit(1)
}
