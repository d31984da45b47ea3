// Differential suite for the two exact rules of the evaluation
// pipeline: the dead-init rewrite in evalSOS and the fail-first U probe
// order of SearchCompletion. With both rules off (the plain pipeline)
// and on, the Table-1 inventory must serialize to the same bytes, and
// every completion search must try the same number of candidates. Lives
// in the external test package so it can drive behav and stress.
//
// The runs of one check share an outcome memo, which is exact (its own
// tests compare it with a plain map and with fresh simulation). The
// rules change which outcomes are asked for, not what a given key
// holds: with the rules on, a dead init is asked for under the
// InitNone key, which the plain run never produced, so it is simulated
// afresh; the fail-first order picks which cached probes decide each
// verdict. Sharing keeps the suite affordable under -race.
package analysis_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/numeric"
	"github.com/memtest/partialfaults/internal/report"
	"github.com/memtest/partialfaults/internal/stress"
)

// exactRulesGrid is the analytical benchmark grid: 5 R_def × 4 U.
func exactRulesGrid() (rdefs, us []float64) {
	return numeric.Logspace(1e4, 1e8, 5), numeric.Linspace(0, 4.6, 4)
}

// withExactRules runs f with the rules set to on and restores the
// previous setting.
func withExactRules[T any](on bool, f func() T) T {
	restore := analysis.SetExactRules(on)
	defer restore()
	return f()
}

func inventoryJSON(t *testing.T, rows []analysis.Row) []byte {
	t.Helper()
	b, err := json.Marshal(report.ToInventoryJSON(rows))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rowSearches repeats every row's completion search — same probe
// resistances, same U axis, one replay cache per (open, float group)
// unit as in BuildInventory — and returns the results in row order.
func rowSearches(t *testing.T, factory analysis.Factory, model analysis.Fingerprint, memo *analysis.Memo, rows []analysis.Row, us []float64) []analysis.Completion {
	t.Helper()
	type unit struct {
		open  int
		float defect.FloatVar
	}
	replays := map[unit]*analysis.ReplayCache{}
	pool := analysis.NewPool(2)
	out := make([]analysis.Completion, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i, r := range rows {
		g, ok := r.Open.Float(r.Float)
		if !ok {
			t.Fatalf("%s has no %s group", r.Open.Name(), r.Float)
		}
		u := unit{r.Open.ID, r.Float}
		if replays[u] == nil {
			replays[u] = analysis.NewReplayCache(factory, r.Open, g.Nets)
			defer replays[u].Close()
		}
		wg.Add(1)
		go func(i int, r analysis.Row, replay *analysis.ReplayCache) {
			defer wg.Done()
			out[i], errs[i] = analysis.SearchCompletion(analysis.CompletionConfig{
				Factory: factory, Open: r.Open, Float: g,
				Base:  r.Partial.Example.Base(),
				RDefs: analysis.ProbeRDefs(r.Partial.RDefWithPartial, 4), Us: us,
				Model: model, Memo: memo, Replay: replay, Pool: pool,
			})
		}(i, r, replays[u])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkInventoryBothWays builds the inventory with the rules off and on
// and requires byte-identical rows, then repeats every row's search
// both ways and requires the same verdict, completion and Tried count.
func checkInventoryBothWays(t *testing.T, cfg analysis.InventoryConfig) {
	t.Helper()
	cfg.Memo = analysis.NewMemo()
	build := func() []analysis.Row {
		rows, err := analysis.BuildInventory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	off, on := withExactRules(false, build), withExactRules(true, build)
	if len(off) == 0 {
		t.Fatal("empty inventory")
	}
	if a, b := inventoryJSON(t, off), inventoryJSON(t, on); !bytes.Equal(a, b) {
		t.Fatalf("inventory rows differ:\n off %s\n on  %s", a, b)
	}
	search := func() []analysis.Completion { return rowSearches(t, cfg.Factory, cfg.Model, cfg.Memo, off, cfg.Us) }
	soff, son := withExactRules(false, search), withExactRules(true, search)
	for i, r := range off {
		if soff[i].Possible != r.Possible || soff[i].Completed.String() != r.Completed.String() {
			t.Fatalf("row %d (%s %s %s): the repeated search does not reproduce the row", i, r.SimFFM, r.Open.Name(), r.Float)
		}
		if !reflect.DeepEqual(soff[i], son[i]) {
			t.Errorf("row %d (%s %s %s): search off %+v, on %+v", i, r.SimFFM, r.Open.Name(), r.Float, soff[i], son[i])
		}
	}
}

func TestExactRulesInventoryBehav(t *testing.T) {
	p := behav.DefaultParams()
	rdefs, us := exactRulesGrid()
	checkInventoryBothWays(t, analysis.InventoryConfig{
		Factory: behav.NewFactory(p), Model: behav.Fingerprint(p),
		RDefs: rdefs, Us: us, Parallelism: 2,
	})
}

func TestExactRulesInventoryBehavTraced(t *testing.T) {
	p := behav.DefaultParams()
	rdefs, us := exactRulesGrid()
	checkInventoryBothWays(t, analysis.InventoryConfig{
		Factory: behav.NewFactory(p), Model: behav.Fingerprint(p),
		RDefs: rdefs, Us: us, Parallelism: 2,
		Sweep: analysis.SweepTraced,
	})
}

func TestExactRulesInventorySpice(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("electrical inventory twice: skipped under -short and -race")
	}
	tech := dram.Default()
	model, err := analysis.SpiceFingerprint(tech)
	if err != nil {
		t.Fatal(err)
	}
	checkInventoryBothWays(t, analysis.InventoryConfig{
		Factory: analysis.NewPooledSpiceFactory(tech), Model: model,
		RDefs: numeric.Logspace(1e4, 1e7, 3), Us: numeric.Linspace(0, 3.3, 3),
		Parallelism: 2,
	})
}

// TestExactRulesStressCorners runs the stress matrix over every
// built-in corner both ways: each corner's inventory must serialize to
// the same bytes, and the whole result (coverage, deltas, certificate)
// must be equal.
func TestExactRulesStressCorners(t *testing.T) {
	rdefs, us := exactRulesGrid()
	memo := analysis.NewMemo()
	analyze := func() *stress.Result {
		res, err := stress.Analyze(stress.Config{
			RDefs: rdefs, Us: us, Memo: memo,
			Tests: []march.Test{march.MarchPF()}, Rows: 2, Cols: 2,
			Parallelism: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := withExactRules(false, analyze), withExactRules(true, analyze)
	if len(off.Corners) != len(stress.DefaultCorners()) {
		t.Fatalf("%d corners, want %d", len(off.Corners), len(stress.DefaultCorners()))
	}
	for i, c := range off.Corners {
		if a, b := inventoryJSON(t, c.Rows), inventoryJSON(t, on.Corners[i].Rows); !bytes.Equal(a, b) {
			t.Errorf("corner %s: inventory rows differ:\n off %s\n on  %s", c.Spec.Name, a, b)
		}
	}
	if !reflect.DeepEqual(off, on) {
		t.Error("stress results differ beyond the inventory rows")
	}
}
