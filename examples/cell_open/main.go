// Cell open walkthrough: regenerates the paper's Figure 4 — the wedge-
// shaped RDF0 region of an in-cell open (Open 1), whose onset resistance
// depends strongly on the floating cell voltage, and the triple-write
// completion [w1 w1 w0] r0 that removes the dependence. Runs both the
// fast analytical engine and, at a few probe points, the full electrical
// (SPICE-level) column for cross-validation.
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/numeric"
	"github.com/memtest/partialfaults/internal/report"
)

func main() {
	open, _ := defect.ByID(1)
	group, _ := open.Float(defect.FloatMemoryCell)
	fast := behav.NewFactory(behav.DefaultParams())

	rdefs := numeric.Logspace(1e4, 1e7, 9)
	us := numeric.Linspace(0, 3.3, 10)

	// Figure 4(a): the bare r0.
	bare, err := analysis.SweepPlane(analysis.SweepConfig{
		Factory: fast, Open: open, Float: group,
		SOS:   fp.NewSOS(fp.Init0, fp.R(0)),
		RDefs: rdefs, Us: us,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Figure 4(a): S = 0r0 ===")
	if err := report.WritePlane(os.Stdout, bare); err != nil {
		log.Fatal(err)
	}

	// The paper's headline numbers: RDF0 onset at U = 1.6 V vs U = 0 V.
	uLow, uHigh := 0, 0
	for j, u := range us {
		if u <= 0.01 {
			uLow = j
		}
		if u <= 1.6 {
			uHigh = j
		}
	}
	onHigh, _ := bare.MinRDefWithFFM(fp.RDF0, uHigh)
	onLow, okLow := bare.MinRDefWithFFM(fp.RDF0, uLow)
	fmt.Printf("\nRDF0 onset: %.0f kΩ at U≈1.6 V", onHigh/1e3)
	if okLow {
		fmt.Printf(" vs %.0f kΩ at U=0 V (paper: 150 kΩ vs 300 kΩ)\n\n", onLow/1e3)
	} else {
		fmt.Printf("; never at U=0 V in this grid (paper: 300 kΩ)\n\n")
	}

	// Figure 4(b): the completed SOS.
	completed, err := analysis.SweepPlane(analysis.SweepConfig{
		Factory: fast, Open: open, Float: group,
		SOS:   fp.MustParse("<[w1 w1 w0] r0/1/1>").S,
		RDefs: rdefs, Us: us,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Figure 4(b): S = [w1 w1 w0] r0 ===")
	if err := report.WritePlane(os.Stdout, completed); err != nil {
		log.Fatal(err)
	}

	// Cross-validate a few points against the full electrical model.
	fmt.Println("\ncross-validation against the transient (SPICE-level) column:")
	spice := analysis.NewPooledSpiceFactory(dram.Default())
	sos := fp.NewSOS(fp.Init0, fp.R(0))
	for _, probe := range [][2]float64{{5e4, 1.6}, {5e4, 0}, {3e6, 0}} {
		a, err := analysis.RunSOS(fast, open, probe[0], group.Nets, probe[1], sos)
		if err != nil {
			log.Fatal(err)
		}
		b, err := analysis.RunSOS(spice, open, probe[0], group.Nets, probe[1], sos)
		if err != nil {
			log.Fatal(err)
		}
		_, fa := analysis.ClassifyOutcome(sos, a)
		_, fb := analysis.ClassifyOutcome(sos, b)
		agree := "agree"
		if fa != fb {
			agree = "DISAGREE"
		}
		fmt.Printf("  R_def=%-8.3g U=%.1f V: behav faulty=%-5v spice faulty=%-5v → %s\n",
			probe[0], probe[1], fa, fb, agree)
	}
}
