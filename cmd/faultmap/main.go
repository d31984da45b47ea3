// Command faultmap generates an (R_def, U) fault-region map for a chosen
// open defect and sensitizing operation sequence — the tool behind the
// paper's Figures 3 and 4.
//
// Usage:
//
//	faultmap -open 4 -sos "<1r1/0/0>" [-engine behav|spice]
//	         [-rdef-min 1e3] [-rdef-max 1e7] [-rdef-steps 13]
//	         [-u-min 0] [-u-max 3.3] [-u-steps 12] [-csv]
//	         [-sweep dense|traced]
//
// -sweep traced replaces the dense grid sweep with the adaptive
// boundary tracer (DESIGN.md §14): identical map, a fraction of the
// simulations; the simulated/inferred split is reported on stderr.
//
// The -sos flag accepts either a bare SOS ("1r1", "1v [w0BL] r1v") or a
// full fault primitive whose S part is used.
//
// -twocell "March C-" (or "all") prints the two-cell coverage
// certificate for the named march test on a 4×2 array: the static
// completion pre-pass checked against the exhaustive coupling-fault
// simulation.
//
// -prove "March PF" (or "all") prints the static three-valued detection
// matrix for the named march test against the paper's partial-fault
// catalog and the two-cell catalog: proved Detects/Misses verdicts
// quantified over every geometry, placement and address order, with the
// proof trace or witness behind each verdict.
//
// -stress sweeps the full defect catalog at every operating corner
// (-corners "low-vdd;hot" or name:key=val,... derivations; default: the
// built-in corner set) and prints the per-corner Table 1 inventories,
// the corner deltas against nominal, and the worst-corner coverage
// certificate. -engine, -march-engine and the grid flags apply.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/netlint"
	"github.com/memtest/partialfaults/internal/numeric"
	"github.com/memtest/partialfaults/internal/report"
	"github.com/memtest/partialfaults/internal/stress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		openID    = fs.Int("open", 4, "open defect number (1-9, Figure 2)")
		sosStr    = fs.String("sos", "1r1", "sensitizing operation sequence or fault primitive")
		floatVar  = fs.String("float", "", "floating voltage to sweep (default: the open's primary group)")
		engine    = fs.String("engine", "behav", "simulation engine: behav (analytical) or spice (transient)")
		rdefMin   = fs.Float64("rdef-min", 1e3, "minimum open resistance [Ω]")
		rdefMax   = fs.Float64("rdef-max", 1e7, "maximum open resistance [Ω]")
		rdefSteps = fs.Int("rdef-steps", 13, "log-spaced resistance steps")
		uMin      = fs.Float64("u-min", 0, "minimum floating voltage [V]")
		uMax      = fs.Float64("u-max", 3.3, "maximum floating voltage [V]")
		uSteps    = fs.Int("u-steps", 12, "linear voltage steps")
		csv       = fs.Bool("csv", false, "emit CSV instead of the ASCII map")
		sweepMode = fs.String("sweep", "dense", "plane-sweep strategy: dense (simulate every grid point) or traced (adaptive boundary tracing, identical map)")
		doLint    = fs.Bool("lint", false, "run the static-analysis pre-flight and abort on errors")
		predict   = fs.Bool("predict", false, "print the statically predicted floating-line set for the open and exit")
		defSite   = fs.String("defect", "", "comma-separated short/bridge defect sites, each optionally @ohms (e.g. short.cell.gnd,bridge.cell.cell or short.bl.vdd@2e3); with -predict, prints the net-merge verdict table instead of an open's float set")
		twoCell   = fs.String("twocell", "", "march test name (or \"all\") whose two-cell coverage certificate to print; exits nonzero on an unsound certificate")
		marchEng  = fs.String("march-engine", "memsim", "march simulation backend for -twocell: memsim (scalar oracle) or bitsim (bit-plane)")
		proveTest = fs.String("prove", "", "march test name (or \"all\") whose static three-valued detection matrix to print; exits nonzero when the prover and the completion pre-pass disagree")
		doStress  = fs.Bool("stress", false, "sweep the defect catalog at every operating corner and print per-corner inventories, corner deltas and the worst-corner coverage certificate")
		cornersFl = fs.String("corners", "", "semicolon-separated corner list for -stress: built-in names (nominal, low-vdd, high-vdd, weak-precharge, hot, cold) or name:key=val,... derivations (keys vdd, vpp, bleq, vref, temp); default: the built-in set")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "faultmap: "+format+"\n", a...)
		return 1
	}

	if *doLint {
		if err := preflight(stderr); err != nil {
			return fail("%v", err)
		}
	}

	if *doStress {
		err := stressMatrix(stdout, stderr, stressOpts{
			engine: *engine, marchEngine: *marchEng,
			corners: *cornersFl, sweep: *sweepMode,
			rdefs: numeric.Logspace(*rdefMin, *rdefMax, *rdefSteps),
			us:    numeric.Linspace(*uMin, *uMax, *uSteps),
		})
		if err != nil {
			return fail("%v", err)
		}
		return 0
	}
	if *proveTest != "" {
		if err := detectionMatrix(stdout, *proveTest); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	if *twoCell != "" {
		if err := twoCellCertificates(stdout, *twoCell, *marchEng); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	if *defSite != "" {
		if err := predictMerge(stdout, *defSite); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	open, ok := defect.ByID(*openID)
	if !ok {
		return fail("unknown open %d; the paper defines opens 1-9", *openID)
	}
	if *predict {
		if err := predictFloats(stdout, open); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	sos, err := parseSOSOrFP(*sosStr)
	if err != nil {
		return fail("bad -sos: %v", err)
	}
	group := open.Floats[0]
	if *floatVar != "" {
		g, ok := open.Float(defect.FloatVar(*floatVar))
		if !ok {
			return fail("open %d has no floating group %q", *openID, *floatVar)
		}
		group = g
	}
	var factory analysis.Factory
	switch *engine {
	case "behav":
		factory = behav.NewFactory(behav.DefaultParams())
	case "spice":
		factory = analysis.NewPooledSpiceFactory(dram.Default())
	default:
		return fail("unknown engine %q", *engine)
	}

	mode, err := analysis.ParseSweepMode(*sweepMode)
	if err != nil {
		return fail("bad -sweep: %v", err)
	}
	var trace analysis.TraceCounters
	plane, err := analysis.RunSweep(mode, 0, &trace, analysis.SweepConfig{
		Factory: factory, Open: open, Float: group, SOS: sos,
		RDefs: numeric.Logspace(*rdefMin, *rdefMax, *rdefSteps),
		Us:    numeric.Linspace(*uMin, *uMax, *uSteps),
	})
	if err != nil {
		return fail("sweep: %v", err)
	}
	if mode == analysis.SweepTraced {
		ts, _ := trace.Snapshot()
		fmt.Fprintf(stderr, "faultmap: traced sweep simulated %d of %d points (%d inferred, %.1fx fewer simulations)\n",
			ts.Simulated(), ts.Points(), ts.Inferred, ts.Reduction())
	}
	if *csv {
		if err := report.WritePlaneCSV(stdout, plane); err != nil {
			return fail("csv: %v", err)
		}
		return 0
	}
	if err := report.WritePlane(stdout, plane); err != nil {
		return fail("map: %v", err)
	}
	for _, f := range analysis.IdentifyPartialFaults(plane) {
		fmt.Fprintf(stdout, "partial fault: %s observed only for U ∈ [%.2f, %.2f] V (e.g. %s)\n",
			f.FFM, f.ULow, f.UHigh, f.Example)
	}
	return 0
}

func parseSOSOrFP(s string) (fp.SOS, error) {
	if strings.HasPrefix(strings.TrimSpace(s), "<") {
		p, err := fp.Parse(s)
		if err != nil {
			return fp.SOS{}, err
		}
		return p.S, nil
	}
	return fp.ParseSOS(s)
}

// predictFloats prints the floating-line set the netlist graph predicts
// for the open — the static counterpart of the sweep's declared float
// groups. Primary nets lose their only DC drive path when the open's
// site element is cut; secondary nets are starved transitively because a
// floating control net stops reaching their access gates.
func predictFloats(w io.Writer, open defect.Open) error {
	col, err := dram.NewColumn(dram.Default())
	if err != nil {
		return fmt.Errorf("predict: %v", err)
	}
	az := netlint.New(col.Circuit(), dram.LintModel())
	pred := az.PredictFloats([]string{dram.SiteElementName(open.Site)})
	fmt.Fprintf(w, "open %d cuts element %s\n", open.ID, dram.SiteElementName(open.Site))
	fmt.Fprintf(w, "primary floats:   %s\n", joinOrNone(pred.Primary))
	fmt.Fprintf(w, "secondary floats: %s\n", joinOrNone(pred.Secondary))
	return nil
}

// predictMerge prints the net-merge verdict table for one or more
// short/bridge defect sites, comma-separated, each optionally suffixed
// "@ohms" for a resistive (weak) bridge: which nets become electrically
// identified (transitively, across all sites at once), whether each
// merged class is supply-stuck or contested per phase, how each weak
// bridge's divider resolves, and the (empty) floating prediction — the
// paper's Section 2 negative result, proven statically.
func predictMerge(w io.Writer, arg string) error {
	catalog := map[string]defect.ShortOrBridge{}
	var sites []string
	for _, s := range defect.ShortsAndBridges() {
		sites = append(sites, s.Site)
		catalog[s.Site] = s
	}
	var spec netlint.MergeSpec
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		site, ohms := part, 0.0
		if at := strings.IndexByte(part, '@'); at >= 0 {
			site = part[:at]
			v, err := strconv.ParseFloat(part[at+1:], 64)
			if err != nil || v < 0 {
				return fmt.Errorf("bad resistance in %q; want e.g. %s@2e3", part, site)
			}
			ohms = v
		}
		sb, ok := catalog[site]
		if !ok {
			return fmt.Errorf("unknown defect site %q; catalog: %s", site, strings.Join(sites, ", "))
		}
		fmt.Fprintf(w, "%s: %s\n", sb.Name(), sb.Description)
		spec.Elems = append(spec.Elems, netlint.MergeElem{
			Name: dram.SiteElementName(site), Ohms: ohms,
		})
	}
	col, err := dram.NewColumn(dram.Default())
	if err != nil {
		return fmt.Errorf("predict: %v", err)
	}
	az := netlint.New(col.Circuit(), dram.LintModel())
	pred, err := az.PredictMergeSet(spec)
	if err != nil {
		return fmt.Errorf("predict: %v", err)
	}
	if err := report.WriteMergePrediction(w, pred); err != nil {
		return fmt.Errorf("predict: %v", err)
	}
	return nil
}

// twoCellCertificates prints the two-cell coverage certificate for the
// named march test ("all" for the whole library) on a 4×2 array: every
// catalog coupling fault's simulated detection verdict side by side
// with the static completion pre-pass, plus the soundness check that no
// statically proved miss was caught dynamically. The engine name picks
// the simulation backend (the bit-plane engine produces identical
// verdicts; useful for cross-checking and for larger geometries).
func twoCellCertificates(w io.Writer, name, engineName string) error {
	var eng march.Engine
	switch engineName {
	case "memsim":
		eng = march.ScalarEngine{}
	case "bitsim":
		eng = bitsim.New()
	default:
		return fmt.Errorf("unknown -march-engine %q (want memsim or bitsim)", engineName)
	}
	tests, err := testsNamed(name)
	if err != nil {
		return err
	}
	unsound := false
	for _, t := range tests {
		cert, err := march.TwoCellCertificateWith(eng, t, march.TwoCellCatalog(), 4, 2)
		if err != nil {
			return fmt.Errorf("twocell: %v", err)
		}
		if err := report.WriteTwoCellCoverage(w, cert); err != nil {
			return fmt.Errorf("twocell: %v", err)
		}
		fmt.Fprintln(w)
		if len(cert.Violations()) > 0 {
			unsound = true
		}
	}
	if unsound {
		return fmt.Errorf("twocell: at least one certificate is unsound")
	}
	return nil
}

// detectionMatrix prints the static three-valued detection matrix for
// the named march test ("all" for the whole library) against the
// paper's partial-fault catalog and the two-cell coupling catalog, and
// errors when any completion-pre-pass cannot-complete claim is not
// confirmed as a proved miss.
func detectionMatrix(w io.Writer, name string) error {
	tests, err := testsNamed(name)
	if err != nil {
		return err
	}
	m := march.BuildDetectionMatrix(tests, march.PaperFaultCatalog(), march.TwoCellCatalog())
	if err := report.WriteDetectionMatrix(w, m); err != nil {
		return fmt.Errorf("prove: %v", err)
	}
	if len(m.Drift()) > 0 {
		return fmt.Errorf("prove: the detection prover and the completion pre-pass disagree")
	}
	return nil
}

// stressOpts carries the CLI knobs of the -stress mode.
type stressOpts struct {
	engine, marchEngine, corners, sweep string
	rdefs, us                           []float64
}

// stressMatrix runs the stress-condition scenario matrix and prints the
// per-corner inventories, the corner deltas against nominal and the
// worst-corner certificate. Corner progress goes to stderr.
func stressMatrix(stdout, stderr io.Writer, o stressOpts) error {
	corners := stress.DefaultCorners()
	if o.corners != "" {
		var err error
		corners, err = stress.ParseSpecs(o.corners)
		if err != nil {
			return fmt.Errorf("bad -corners: %v", err)
		}
	}
	var eng march.Engine
	switch o.marchEngine {
	case "memsim":
		eng = march.ScalarEngine{}
	case "bitsim":
		eng = bitsim.New()
	default:
		return fmt.Errorf("unknown -march-engine %q (want memsim or bitsim)", o.marchEngine)
	}
	mode, err := analysis.ParseSweepMode(o.sweep)
	if err != nil {
		return fmt.Errorf("bad -sweep: %v", err)
	}
	res, err := stress.Analyze(stress.Config{
		Corners:     corners,
		Engine:      o.engine,
		MarchEngine: eng,
		RDefs:       o.rdefs, Us: o.us,
		Sweep: mode,
		Progress: func(line string) {
			fmt.Fprintf(stderr, "faultmap: %s\n", line)
		},
	})
	if err != nil {
		return fmt.Errorf("stress: %v", err)
	}
	if err := report.WriteStressMatrix(stdout, res); err != nil {
		return fmt.Errorf("stress: %v", err)
	}
	return nil
}

// testsNamed resolves a march test name, or "all" for the library.
func testsNamed(name string) ([]march.Test, error) {
	if name == "all" {
		return march.All(), nil
	}
	for _, t := range march.All() {
		if t.Name == name {
			return []march.Test{t}, nil
		}
	}
	return nil, fmt.Errorf("unknown march test %q; use \"all\" or one of the library names", name)
}

func joinOrNone(nets []string) string {
	if len(nets) == 0 {
		return "(none)"
	}
	return strings.Join(nets, ", ")
}

// preflight runs the static netlist, inventory and march checks and
// aborts before any simulation when they find an error.
func preflight(stderr io.Writer) error {
	findings, err := analysis.Preflight(dram.Default())
	if err != nil {
		return fmt.Errorf("lint: %v", err)
	}
	if err := report.WriteFindings(stderr, findings, lint.Warning); err != nil {
		return fmt.Errorf("lint: %v", err)
	}
	if findings.Count(lint.Error) > 0 {
		return fmt.Errorf("lint: static analysis failed; not simulating")
	}
	return nil
}
