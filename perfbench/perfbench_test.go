package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/table1-*.json from a fresh inventory")

// TestMain runs the tests from the repository root, where the benchmark
// itself runs.
func TestMain(m *testing.M) {
	flag.Parse()
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestExpectedRows checks the committed Table-1 rows against a fresh
// BuildInventory on each engine (go test -update rewrites them).
func TestExpectedRows(t *testing.T) {
	for _, tc := range []struct {
		engine                     string
		rows, completed, notPossib int
	}{
		{"behav", 56, 34, 22},
		{"spice", 50, 30, 20},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			if tc.engine == "spice" && testing.Short() {
				t.Skip("spice inventory takes ~10 s")
			}
			in := &table1Input{engine: tc.engine, factory: newFactory(tc.engine), opens: defect.SimulatedOpens()}
			in.rdefs, in.us = table1Grid(tc.engine)
			run, err := runInventory(in, analysis.SweepDense)
			if err != nil {
				t.Fatal(err)
			}
			c, np := countRows(run.rows)
			if len(run.rows) != tc.rows || c != tc.completed || np != tc.notPossib {
				t.Errorf("inventory has %d rows (%d completed, %d not possible), want %d (%d/%d)",
					len(run.rows), c, np, tc.rows, tc.completed, tc.notPossib)
			}
			path := filepath.Join("perfbench", "testdata", "table1-"+tc.engine+".json")
			if *update {
				buf, err := json.MarshalIndent(report.ToInventoryJSON(run.rows), "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			exp, err := loadExpected(tc.engine)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(canonicalRows(run.rows), exp) {
				t.Errorf("rows differ from %s", path)
			}
		})
	}
}

// bareMemory implements analysis.Memory and none of its extensions.
type bareMemory struct{ analysis.Memory }

func extensions(m analysis.Memory) [3]bool {
	_, snap := m.(analysis.Snapshotter)
	_, rel := m.(analysis.Releaser)
	_, probe := m.(analysis.VoltageProber)
	return [3]bool{snap, rel, probe}
}

// TestWrapperForwardsExactlyTheExtensions checks that the counting
// wrapper neither drops nor adds an optional Memory interface: behav
// memories snapshot, pooled spice memories also release and probe, and
// a bare memory does none of these.
func TestWrapperForwardsExactlyTheExtensions(t *testing.T) {
	open, _ := defect.ByID(1)
	for _, tc := range []struct {
		name    string
		factory analysis.Factory
		want    [3]bool
	}{
		{"behav", newFactory("behav"), [3]bool{true, false, false}},
		{"pooled spice", newFactory("spice"), [3]bool{true, true, true}},
		{"bare", func(o defect.Open, r float64) (analysis.Memory, error) {
			m, err := newFactory("behav")(o, r)
			return bareMemory{m}, err
		}, [3]bool{false, false, false}},
	} {
		var c deviceCounters
		mem, err := tc.factory(open, 1e5)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := countingFactory(tc.factory, &c)(open, 1e5)
		if err != nil {
			t.Fatal(err)
		}
		if got := extensions(mem); got != tc.want {
			t.Errorf("%s: memory implements %v, want %v", tc.name, got, tc.want)
		}
		if got := extensions(wrapped); got != tc.want {
			t.Errorf("%s: wrapped memory implements %v, want %v", tc.name, got, tc.want)
		}
		if err := wrapped.Write(0, 1); err != nil {
			t.Fatal(err)
		}
		if c.builds.Load() != 1 || c.ops.Load() != 1 {
			t.Errorf("%s: counted %d builds and %d ops, want 1 and 1", tc.name, c.builds.Load(), c.ops.Load())
		}
		for _, m := range []analysis.Memory{mem, wrapped} {
			if rel, ok := m.(analysis.Releaser); ok {
				rel.Release()
			}
		}
	}
}

// TestTracedRunMatchesUntraced drives a reduced inventory on both
// engines three ways — BuildInventory, the traced drive on the bare
// factory, and the traced drive on the counting factory — and requires
// identical rows and memo counts from all three, and identical replay
// counts from both drives.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, engine := range []string{"behav", "spice"} {
		t.Run(engine, func(t *testing.T) {
			in := &table1Input{engine: engine, factory: newFactory(engine)}
			for _, id := range []int{3, 4, 1} {
				o, _ := defect.ByID(id)
				in.opens = append(in.opens, o)
			}
			in.rdefs, in.us = table1Grid(engine)
			if engine == "spice" {
				in.opens = in.opens[:2]
			}
			ref, err := runInventory(in, analysis.SweepDense)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := runTraced(in, false)
			if err != nil {
				t.Fatal(err)
			}
			counted, err := runTraced(in, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.rows) == 0 {
				t.Fatal("reduced inventory has no rows")
			}
			if err := checkTraced(ref, bare, false); err != nil {
				t.Errorf("bare factory: %v", err)
			}
			if err := checkTraced(ref, counted, true); err != nil {
				t.Errorf("counting factory: %v", err)
			}
			if bare.replaySimulated != counted.replaySimulated || bare.replayReplayed != counted.replayReplayed {
				t.Errorf("replay %d/%d through the wrapper, %d/%d without",
					counted.replaySimulated, counted.replayReplayed, bare.replaySimulated, bare.replayReplayed)
			}
			if counted.replaySimulated == 0 || counted.ops == 0 {
				t.Errorf("replay simulated %d steps over %d device ops; want both nonzero", counted.replaySimulated, counted.ops)
			}
		})
	}
}

// TestStreamDeterministic checks that a seed fixes the serve-mixed
// stream — the fill set, the timed body sequence and which timed bodies
// are hits — and that the timed pass has the advertised shape.
func TestStreamDeterministic(t *testing.T) {
	const n = 4000
	draw := func(seed int64) ([]request, []request) {
		s := newStream(seed)
		var timed []request
		for i := 0; i < n; i++ {
			timed = append(timed, s.Next())
		}
		return s.Fill, timed
	}
	fillA, timedA := draw(7)
	fillB, timedB := draw(7)
	if !slices.Equal(fillA, fillB) || !slices.Equal(timedA, timedB) {
		t.Fatal("the same seed gave different streams")
	}
	if fillC, _ := draw(8); slices.Equal(fillA, fillC) {
		t.Fatal("seeds 7 and 8 gave the same fill set")
	}

	inFill := map[string]bool{}
	perEndpoint := map[string]int{}
	for _, r := range fillA {
		if r.New {
			t.Fatalf("fill body marked new: %s", r.Body)
		}
		inFill[r.Endpoint+" "+r.Body] = true
		perEndpoint[r.Endpoint]++
	}
	for _, ep := range streamEndpoints {
		if perEndpoint[ep] != hitPoolPerEndpoint {
			t.Errorf("fill has %d %s bodies, want %d", perEndpoint[ep], ep, hitPoolPerEndpoint)
		}
	}
	sent := map[string]int{}
	newCount := 0
	for i, r := range timedA {
		key := r.Endpoint + " " + r.Body
		if r.New == inFill[key] {
			t.Fatalf("request %d: new=%v but in fill=%v", i, r.New, inFill[key])
		}
		if !r.New {
			continue
		}
		newCount++
		sent[key]++
		if sent[key] == 2 && timedA[i-1] != r {
			t.Fatalf("request %d repeats a new body that was not sent just before", i)
		}
		if sent[key] > 2 {
			t.Fatalf("request %d: new body sent %d times", i, sent[key])
		}
	}
	if frac := float64(newCount) / n; frac < 0.05 || frac > 0.07 {
		t.Errorf("new bodies are %.3f of the timed stream, want 0.05–0.07", frac)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json and the
// benchmark's output vocabulary in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s is not in BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayerDefs(), spec.PerLayer)
}
