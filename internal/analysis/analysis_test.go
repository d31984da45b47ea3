package analysis

import (
	"testing"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
)

// testFactory returns the electrically simulated column factory.
func testFactory() Factory { return NewPooledSpiceFactory(dram.Default()) }

func open4(t *testing.T) defect.Open {
	t.Helper()
	o, ok := defect.ByID(4)
	if !ok {
		t.Fatal("Open 4 missing")
	}
	return o
}

func open1(t *testing.T) defect.Open {
	t.Helper()
	o, ok := defect.ByID(1)
	if !ok {
		t.Fatal("Open 1 missing")
	}
	return o
}

// TestFigure3aPartialRDF1 reproduces the paper's Figure 3(a) on a coarse
// grid: a bit-line open (Open 4) with SOS 1r1 shows RDF1 only for low
// floating bit-line voltages — a partial fault.
func TestFigure3aPartialRDF1(t *testing.T) {
	o := open4(t)
	grp, _ := o.Float(defect.FloatBitLine)
	plane, err := SweepPlane(SweepConfig{
		Factory: testFactory(), Open: o, Float: grp,
		SOS:   fp.NewSOS(fp.Init1, fp.R(1)),
		RDefs: []float64{1e3, 1e5, 1e7},
		Us:    []float64{0, 0.8, 3.3},
	})
	if err != nil {
		t.Fatalf("SweepPlane: %v", err)
	}
	// Low R_def: healthy behaviour everywhere.
	for j := range plane.Us {
		if plane.Points[0][j].Faulty {
			t.Errorf("R_def=1kΩ U=%.1f unexpectedly faulty", plane.Us[j])
		}
	}
	// High R_def: RDF1 at low U, no fault at high U.
	for _, i := range []int{1, 2} {
		if got := plane.Points[i][0].FFM; got != fp.RDF1 {
			t.Errorf("R_def=%.0e U=0: FFM = %s, want RDF1", plane.RDefs[i], got)
		}
		if plane.Points[i][2].Faulty {
			t.Errorf("R_def=%.0e U=3.3: unexpectedly faulty", plane.RDefs[i])
		}
	}
	// The rule must flag RDF1 as partial.
	findings := IdentifyPartialFaults(plane)
	var found bool
	for _, f := range findings {
		if f.FFM == fp.RDF1 {
			found = true
			if f.UHigh >= 3.3 {
				t.Error("RDF1 should not extend to U=3.3V")
			}
		}
	}
	if !found {
		t.Fatal("partial-fault rule did not flag RDF1")
	}
	if IsCompletedIn(plane, fp.RDF1) {
		t.Error("bare 1r1 must NOT be complete for Open 4")
	}
}

// TestFigure3bCompletedSOS reproduces Figure 3(b): with the completing
// operation w0 to a bit-line neighbour, the fault no longer depends on
// the floating voltage.
func TestFigure3bCompletedSOS(t *testing.T) {
	o := open4(t)
	grp, _ := o.Float(defect.FloatBitLine)
	completed := fp.MustParse("<1v [w0BL] r1v/0/0>")
	plane, err := SweepPlane(SweepConfig{
		Factory: testFactory(), Open: o, Float: grp,
		SOS:   completed.S,
		RDefs: []float64{1e5, 1e7},
		Us:    []float64{0, 1.65, 3.3},
	})
	if err != nil {
		t.Fatalf("SweepPlane: %v", err)
	}
	if !IsCompletedIn(plane, fp.RDF1) {
		t.Fatal("1v [w0BL] r1v must sensitize RDF1 for every floating BL voltage")
	}
	if len(IdentifyPartialFaults(plane)) != 0 {
		t.Error("completed SOS must have no partial findings")
	}
}

// TestSearchCompletionFindsW0BL checks the automatic completing-operation
// search discovers the paper's [w0BL] completion for Open 4's RDF1.
func TestSearchCompletionFindsW0BL(t *testing.T) {
	o := open4(t)
	grp, _ := o.Float(defect.FloatBitLine)
	comp, err := SearchCompletion(CompletionConfig{
		Factory: testFactory(), Open: o, Float: grp,
		Base:  fp.MustParse("<1r1/0/0>"),
		RDefs: []float64{1e6},
		Us:    []float64{0, 1.65, 3.3},
	})
	if err != nil {
		t.Fatalf("SearchCompletion: %v", err)
	}
	if !comp.Possible {
		t.Fatal("completion must exist for Open 4 RDF1")
	}
	want := "<1v [w0BL] r1v/0/0>"
	if got := comp.Completed.String(); got != want {
		t.Errorf("completed FP = %s, want %s", got, want)
	}
}

// TestFigure4aCellOpenWedge reproduces the qualitative Figure 4(a) shape:
// for a cell open the RDF0 onset R_def is much lower at a high floating
// cell voltage than at U = 0.
func TestFigure4aCellOpenWedge(t *testing.T) {
	o := open1(t)
	grp, _ := o.Float(defect.FloatMemoryCell)
	plane, err := SweepPlane(SweepConfig{
		Factory: testFactory(), Open: o, Float: grp,
		SOS:   fp.NewSOS(fp.Init0, fp.R(0)),
		RDefs: []float64{1e4, 1e5, 3e6},
		Us:    []float64{0, 1.6},
	})
	if err != nil {
		t.Fatalf("SweepPlane: %v", err)
	}
	uIdxHigh := 1
	uIdxLow := 0
	onsetHigh, okHigh := plane.MinRDefWithFFM(fp.RDF0, uIdxHigh)
	if !okHigh {
		t.Fatal("RDF0 never appears at U=1.6V")
	}
	onsetLow, okLow := plane.MinRDefWithFFM(fp.RDF0, uIdxLow)
	if okLow && onsetLow <= onsetHigh {
		t.Errorf("RDF0 onset at U=0 (%.0e) should exceed onset at U=1.6 (%.0e)", onsetLow, onsetHigh)
	}
	if got := plane.Points[1][uIdxHigh].FFM; got != fp.RDF0 {
		t.Errorf("R_def=100kΩ U=1.6: FFM = %s, want RDF0", got)
	}
	if plane.Points[0][uIdxLow].Faulty {
		t.Error("R_def=10kΩ U=0 must be fault-free")
	}
}

func TestClassifyOutcomeFaultFree(t *testing.T) {
	sos := fp.NewSOS(fp.Init1, fp.R(1))
	if _, faulty := ClassifyOutcome(sos, Outcome{F: 1, R: fp.R1}); faulty {
		t.Error("correct read classified as faulty")
	}
	obs, faulty := ClassifyOutcome(sos, Outcome{F: 0, R: fp.R0})
	if !faulty || obs.Classify() != fp.RDF1 {
		t.Errorf("RDF1 outcome misclassified: %v %v", obs, faulty)
	}
}

func TestRunSOSHealthyColumn(t *testing.T) {
	// With a healthy (wire-resistance) open, every static SOS behaves
	// fault-free regardless of the float initialization, because the
	// precharge normalizes it.
	o := open4(t)
	grp, _ := o.Float(defect.FloatBitLine)
	for _, sos := range StaticSOSes() {
		for _, u := range []float64{0, 3.3} {
			out, err := RunSOS(testFactory(), o, dram.Default().RWire, grp.Nets, u, sos)
			if err != nil {
				t.Fatalf("RunSOS(%q, U=%g): %v", sos, u, err)
			}
			if _, faulty := ClassifyOutcome(sos, out); faulty {
				t.Errorf("healthy column faulty for SOS %q at U=%g: %+v", sos, u, out)
			}
		}
	}
}

func TestSweepPlaneValidation(t *testing.T) {
	if _, err := SweepPlane(SweepConfig{}); err == nil {
		t.Error("empty grid must error")
	}
}

func TestProbeRDefs(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5}
	out := probeRDefs(in, 2)
	if len(out) != 2 || out[0] != 1 || out[1] != 5 {
		t.Errorf("probeRDefs = %v, want [1 5]", out)
	}
	if got := probeRDefs([]float64{7}, 3); len(got) != 1 || got[0] != 7 {
		t.Errorf("probeRDefs short input = %v", got)
	}
}
