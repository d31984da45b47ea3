package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/numeric"
	"github.com/memtest/partialfaults/internal/report"
)

// table1Input is everything one Table-1 workload hands the pipeline.
// The seed only permutes the order of the opens, which changes the
// order in which the per-unit goroutines start; the rows must not
// change.
type table1Input struct {
	engine   string // "behav" or "spice"
	factory  analysis.Factory
	opens    []defect.Open
	rdefs    []float64
	us       []float64
	expected []string // canonical rows, sorted
}

func table1Grid(engine string) (rdefs, us []float64) {
	if engine == "spice" {
		return numeric.Logspace(1e4, 1e7, 3), numeric.Linspace(0, 3.3, 3)
	}
	return numeric.Logspace(1e4, 1e8, 5), numeric.Linspace(0, 4.6, 4)
}

func newFactory(engine string) analysis.Factory {
	if engine == "spice" {
		return analysis.NewPooledSpiceFactory(dram.Default())
	}
	return behav.NewFactory(behav.DefaultParams())
}

// seededOpens returns the simulated opens in a seed-determined order.
func seededOpens(seed int64) []defect.Open {
	opens := defect.SimulatedOpens()
	rand.New(rand.NewSource(seed)).Shuffle(len(opens), func(i, j int) { opens[i], opens[j] = opens[j], opens[i] })
	return opens
}

// setupTable1 builds the workload's input: the factory, the grid, the
// expected rows, and one device per open so first-use costs (column
// netlists, engine allocation) fall into set-up rather than the first
// timed inventory.
func setupTable1(engine string, seed int64) (*table1Input, error) {
	in := &table1Input{engine: engine, factory: newFactory(engine), opens: seededOpens(seed)}
	in.rdefs, in.us = table1Grid(engine)
	exp, err := loadExpected(engine)
	if err != nil {
		return nil, err
	}
	in.expected = exp
	for _, o := range in.opens {
		mem, err := in.factory(o, in.rdefs[0])
		if err != nil {
			return nil, fmt.Errorf("building %s device: %w", o.Name(), err)
		}
		if rel, ok := mem.(analysis.Releaser); ok {
			rel.Release()
		}
	}
	return in, nil
}

// loadExpected reads the committed Table-1 rows for an engine.
func loadExpected(engine string) ([]string, error) {
	buf, err := os.ReadFile(filepath.Join("perfbench", "testdata", "table1-"+engine+".json"))
	if err != nil {
		return nil, fmt.Errorf("expected rows: %w", err)
	}
	var rows []report.InventoryRowJSON
	if err := json.Unmarshal(buf, &rows); err != nil {
		return nil, fmt.Errorf("expected rows: %w", err)
	}
	return canonicalRowsJSON(rows), nil
}

// canonicalRows renders rows one line each, sorted, so that inventories
// whose units started in different orders compare equal.
func canonicalRows(rows []analysis.Row) []string {
	return canonicalRowsJSON(report.ToInventoryJSON(rows))
}

func canonicalRowsJSON(rows []report.InventoryRowJSON) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%s|%s|%d|%s|%v|%s", r.SimFFM, r.ComFFM, r.OpenID, r.Float, r.Possible, r.Completed)
	}
	sort.Strings(out)
	return out
}

// rowsJSON is the exact (ordered) JSON of an inventory.
func rowsJSON(rows []analysis.Row) []byte {
	buf, _ := json.Marshal(report.ToInventoryJSON(rows)) // the DTO always marshals
	return buf
}

// inventoryRun is one untraced BuildInventory call with a cold memo.
type inventoryRun struct {
	rows []analysis.Row
	memo analysis.MemoStats
	wall float64 // seconds
	cpu  float64 // seconds
}

func runInventory(in *table1Input, mode analysis.SweepMode) (inventoryRun, error) {
	memo := analysis.NewMemo()
	cpu0, start := cpuSeconds(), time.Now()
	rows, err := analysis.BuildInventory(analysis.InventoryConfig{
		Factory: in.factory, Opens: in.opens,
		RDefs: in.rdefs, Us: in.us,
		Memo: memo, Sweep: mode,
	})
	run := inventoryRun{rows: rows, memo: memo.Snapshot(), wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0}
	return run, err
}

// tracedRun is the outcome of driving the pipeline through its public
// per-stage calls with a span around each and a counting factory.
type tracedRun struct {
	rows []analysis.Row
	memo analysis.MemoStats
	wall float64

	replaySimulated, replayReplayed uint64
	builds, ops, setFloats          int64
	opSeconds                       float64

	sweepCalls           int
	sweepSeconds         float64
	compCalls, compTried int
	compSeconds          float64
	npCalls, npTried     int
	npSeconds            float64
	compFound            int
	spans                []span
}

// span is one timed call into a layer. Parent is the index of the
// enclosing span, -1 for a root.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Detail string  `json:"detail,omitempty"`
}

type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) begin(name string, parent int, detail string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: time.Since(l.t0).Seconds(), Detail: detail})
	return len(l.spans) - 1
}

// end closes span i and returns its duration in seconds.
func (l *spanLog) end(i int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = time.Since(l.t0).Seconds()
	return l.spans[i].End - l.spans[i].Start
}

// probeRDefs is a copy of the unexported selection in
// analysis.BuildInventory: up to n representative resistances
// (smallest, largest, median, first-third, then ascending fill). The
// traced run asserts its rows equal BuildInventory's, so a drift of the
// original fails loudly.
func probeRDefs(rdefs []float64, n int) []float64 {
	if len(rdefs) <= n {
		return rdefs
	}
	taken := make(map[int]bool, n)
	out := make([]float64, 0, n)
	take := func(i int) {
		if len(out) < n && !taken[i] {
			taken[i] = true
			out = append(out, rdefs[i])
		}
	}
	take(0)
	take(len(rdefs) - 1)
	take(len(rdefs) / 2)
	take(len(rdefs) / 3)
	for i := 0; len(out) < n && i < len(rdefs); i++ {
		take(i)
	}
	return out
}

// runTraced reproduces BuildInventory's composition — one goroutine per
// (open, float group) unit, one shared Memo and Pool, one ReplayCache
// per unit, SOSes in order with first-FFM-wins dedup — from the public
// RunSweep, IdentifyPartialFaults and SearchCompletion calls, timing
// each. With count false the factory is used bare, which is the
// reference for the wrapper's transparency.
func runTraced(in *table1Input, count bool) (tracedRun, error) {
	var dev deviceCounters
	factory := in.factory
	if count {
		factory = countingFactory(in.factory, &dev)
	}
	log := &spanLog{t0: time.Now()}
	root := log.begin("analysis.inventory", -1, in.engine)
	pool := analysis.NewPool(0)
	memo := analysis.NewMemo()

	type unit struct {
		open  defect.Open
		group defect.FloatGroup
	}
	var units []unit
	for _, o := range in.opens {
		for _, g := range o.Floats {
			units = append(units, unit{o, g})
		}
	}
	type unitStats struct {
		rows                        []analysis.Row
		err                         error
		sim, rep                    uint64
		sweeps, comps, tried, found int
		np, npTried                 int
		sweepS, compS, npS          float64
	}
	stats := make([]unitStats, len(units))
	var wg sync.WaitGroup
	for ui, un := range units {
		wg.Add(1)
		go func(st *unitStats, open defect.Open, group defect.FloatGroup) {
			defer wg.Done()
			us := log.begin("analysis.unit", root, fmt.Sprintf("%s/%s", open.Name(), group.Var))
			defer log.end(us)
			replay := analysis.NewReplayCache(factory, open, group.Nets)
			defer func() {
				st.sim, st.rep = replay.Stats()
				replay.Close()
			}()
			seen := map[fp.FFM]bool{}
			for _, sos := range analysis.StaticSOSes() {
				sp := log.begin("analysis.sweep", us, sos.String())
				plane, err := analysis.RunSweep(analysis.SweepDense, 0, nil, analysis.SweepConfig{
					Factory: factory, Open: open, Float: group, SOS: sos,
					RDefs: in.rdefs, Us: in.us,
					Memo: memo, Replay: replay, Pool: pool,
				})
				st.sweepS += log.end(sp)
				st.sweeps++
				if err != nil {
					st.err = fmt.Errorf("%s %s sweep %q: %w", open.Name(), group.Var, sos, err)
					return
				}
				for _, finding := range analysis.IdentifyPartialFaults(plane) {
					if seen[finding.FFM] {
						continue
					}
					seen[finding.FFM] = true
					cs := log.begin("analysis.completion", us, finding.FFM.String())
					comp, err := analysis.SearchCompletion(analysis.CompletionConfig{
						Factory: factory, Open: open, Float: group,
						Base:  finding.Example.Base(),
						RDefs: probeRDefs(finding.RDefWithPartial, 4), Us: in.us,
						Memo: memo, Replay: replay, Pool: pool,
					})
					d := log.end(cs)
					if err != nil {
						st.err = fmt.Errorf("completing %s for %s: %w", finding.FFM, open.Name(), err)
						return
					}
					st.comps++
					st.compS += d
					st.tried += comp.Tried
					if comp.Possible {
						st.found++
					} else {
						st.np++
						st.npS += d
						st.npTried += comp.Tried
					}
					st.rows = append(st.rows, analysis.Row{
						SimFFM: finding.FFM, ComFFM: finding.FFM.Complement(),
						Open: open, Float: group.Var,
						Possible: comp.Possible, Completed: comp.Completed,
						Partial: finding,
					})
				}
			}
		}(&stats[ui], un.open, un.group)
	}
	wg.Wait()
	tr := tracedRun{wall: log.end(root), memo: memo.Snapshot()}
	for _, st := range stats {
		if st.err != nil {
			return tr, st.err
		}
		tr.rows = append(tr.rows, st.rows...)
		tr.replaySimulated += st.sim
		tr.replayReplayed += st.rep
		tr.sweepCalls += st.sweeps
		tr.sweepSeconds += st.sweepS
		tr.compCalls += st.comps
		tr.compSeconds += st.compS
		tr.compTried += st.tried
		tr.compFound += st.found
		tr.npCalls += st.np
		tr.npSeconds += st.npS
		tr.npTried += st.npTried
	}
	// The ordering of analysis.sortRows: grouped by FFM, then open.
	sort.SliceStable(tr.rows, func(i, j int) bool {
		if tr.rows[i].SimFFM != tr.rows[j].SimFFM {
			return tr.rows[i].SimFFM < tr.rows[j].SimFFM
		}
		return tr.rows[i].Open.ID < tr.rows[j].Open.ID
	})
	tr.builds, tr.ops, tr.setFloats = dev.builds.Load(), dev.ops.Load(), dev.setFloat.Load()
	tr.opSeconds = float64(dev.opNanos.Load()) / 1e9
	tr.spans = log.spans
	return tr, nil
}

// checkTraced asserts that a traced run measured the same program as an
// untraced BuildInventory on the same input: identical rows in
// identical order, identical memo traffic, and — when the factory was
// counted — every replay step simulated was one wrapped device call, so
// replay stayed enabled through the wrapper.
func checkTraced(ref inventoryRun, tr tracedRun, counted bool) error {
	if !bytes.Equal(rowsJSON(ref.rows), rowsJSON(tr.rows)) {
		return fmt.Errorf("traced rows differ from BuildInventory's (%d vs %d rows)", len(tr.rows), len(ref.rows))
	}
	if tr.memo != ref.memo {
		return fmt.Errorf("traced memo %d/%d differs from BuildInventory's %d/%d",
			tr.memo.Hits, tr.memo.Misses, ref.memo.Hits, ref.memo.Misses)
	}
	if counted && uint64(tr.ops+tr.setFloats) != tr.replaySimulated {
		return fmt.Errorf("replay simulated %d steps but the device saw %d ops + %d float setups",
			tr.replaySimulated, tr.ops, tr.setFloats)
	}
	return nil
}

func countRows(rows []analysis.Row) (completed, notPossible int) {
	for _, r := range rows {
		if r.Possible {
			completed++
		} else {
			notPossible++
		}
	}
	return
}

// table1Run is the end-to-end measurement: untraced inventories, each
// with a cold memo, back to back until the window is spent.
func table1Run(engine string, seed int64, seconds float64) (result, error) {
	in, setupS, err := timeSetup(9, func() (*table1Input, error) { return setupTable1(engine, seed) }, nil)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	var walls, cpus []float64
	runtime.GC()
	heap := startHeapSampler(2 * time.Millisecond)
	start := time.Now()
	for last := 0.0; len(walls) == 0 || budget(start, seconds, last); {
		run, err := runInventory(in, analysis.SweepDense)
		res.Attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: inventory: %v\n", err)
			res.Failed++
		} else if got := canonicalRows(run.rows); !slices.Equal(got, in.expected) {
			fmt.Fprintf(os.Stderr, "perfbench: inventory rows differ from testdata/table1-%s.json (%d vs %d rows)\n", engine, len(got), len(in.expected))
			res.Failed++
		}
		walls = append(walls, run.wall)
		cpus = append(cpus, run.cpu)
		last = run.wall
	}
	elapsed := time.Since(start).Seconds()
	peak := heap.Stop()
	med := median(walls)
	res.Metrics["setup_s"] = metric{Value: setupS}
	res.Metrics["inventory_s"] = metric{Value: med}
	res.Metrics["cpu_s"] = metric{Value: median(cpus)}
	res.Metrics["peak_heap_mb"] = metric{Value: peak}
	res.Metrics["req_p50_ms"] = metric{Value: med * 1e3}
	res.Metrics["req_p99_ms"] = metric{Value: quantile(walls, 0.99) * 1e3}
	res.Metrics["req_per_s"] = metric{Value: float64(len(walls)) / elapsed}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d inventories in %.1f s, median %.3f s\n", engine, len(walls), elapsed, med)
	return res, nil
}

// table1Trace is the traced run. It alternates untraced inventories and
// traced drives of the same pipeline until the window is spent,
// asserting each traced drive reproduces the untraced rows and memo
// counts, then builds one inventory with the traced sweep and reports
// how many rows it gets wrong.
func table1Trace(engine string, seed int64, seconds float64) (result, error) {
	in, err := setupTable1(engine, seed)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		res.Failed++
	}
	var refWalls, trWalls []float64
	var tr tracedRun
	start := time.Now()
	for last := 0.0; len(trWalls) == 0 || budget(start, seconds, last); {
		// Alternate which side of the pair runs first, so that neither
		// always inherits the other's garbage.
		var ref inventoryRun
		var refErr, trErr error
		if len(trWalls)%2 == 0 {
			ref, refErr = runInventory(in, analysis.SweepDense)
			tr, trErr = runTraced(in, true)
		} else {
			tr, trErr = runTraced(in, true)
			ref, refErr = runInventory(in, analysis.SweepDense)
		}
		if err := errors.Join(refErr, trErr); err != nil {
			return res, err
		}
		res.Attempted += 2
		if !slices.Equal(canonicalRows(ref.rows), in.expected) {
			fail("inventory rows differ from testdata/table1-%s.json", engine)
		}
		if err := checkTraced(ref, tr, true); err != nil {
			fail("%v", err)
		}
		refWalls = append(refWalls, ref.wall)
		trWalls = append(trWalls, tr.wall)
		last = ref.wall + tr.wall
	}

	traced, err := runInventory(in, analysis.SweepTraced)
	if err != nil {
		return res, err
	}
	res.Attempted++
	rowDiff := lineDiff(canonicalRows(traced.rows), in.expected)
	// A difference is a known defect of the traced sweep, reported as a
	// metric; it does not fail the run (NOTES.md).
	for _, l := range rowDiff {
		fmt.Fprintf(os.Stderr, "perfbench: known defect: traced-sweep row %s\n", l)
	}

	m := res.Metrics
	layer := "behav"
	if engine == "spice" {
		layer = "dram"
	}
	m[layer+".ops"] = metric{Value: float64(tr.ops)}
	m[layer+".op_s"] = metric{Value: tr.opSeconds}
	m[layer+".op_us"] = metric{Value: tr.opSeconds / float64(max(tr.ops, 1)) * 1e6}
	m[layer+".builds"] = metric{Value: float64(tr.builds)}
	m["analysis.completion.calls"] = metric{Value: float64(tr.compCalls)}
	m["analysis.completion.s"] = metric{Value: tr.compSeconds}
	m["analysis.completion.tried"] = metric{Value: float64(tr.compTried)}
	m["analysis.completion.np_calls"] = metric{Value: float64(tr.npCalls)}
	m["analysis.completion.np_s"] = metric{Value: tr.npSeconds}
	m["analysis.completion.np_tried"] = metric{Value: float64(tr.npTried)}
	m["analysis.completion.yield"] = metric{Value: float64(tr.compFound) / float64(max(tr.compTried, 1))}
	m["analysis.sweep.calls"] = metric{Value: float64(tr.sweepCalls)}
	m["analysis.sweep.s"] = metric{Value: tr.sweepSeconds}
	m["analysis.device_busy_frac"] = metric{Value: tr.opSeconds / (tr.wall * float64(runtime.GOMAXPROCS(0)))}
	m["analysis.memo.hits"] = metric{Value: float64(tr.memo.Hits)}
	m["analysis.memo.misses"] = metric{Value: float64(tr.memo.Misses)}
	m["analysis.memo.hit_ratio"] = metric{Value: tr.memo.HitRate()}
	m["analysis.replay.simulated"] = metric{Value: float64(tr.replaySimulated)}
	m["analysis.replay.replayed"] = metric{Value: float64(tr.replayReplayed)}
	m["analysis.trace.row_diff"] = metric{Value: float64(len(rowDiff))}
	m["trace.overhead_frac"] = metric{Value: median(trWalls)/median(refWalls) - 1}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d pairs, untraced %.3f s, traced %.3f s\n", engine, len(trWalls), median(refWalls), median(trWalls))
	return res, writeSpans(engine, seed, tr.spans)
}

// lineDiff lists the lines of got that want lacks ("+ line") and the
// lines of want that got lacks ("- line"), counting repeats.
func lineDiff(got, want []string) []string {
	count := map[string]int{}
	for _, l := range got {
		count[l]++
	}
	for _, l := range want {
		count[l]--
	}
	var out []string
	for l, c := range count {
		for ; c > 0; c-- {
			out = append(out, "+ "+l)
		}
		for ; c < 0; c++ {
			out = append(out, "- "+l)
		}
	}
	sort.Strings(out)
	return out
}

// writeSpans keeps the last traced drive's spans for inspection.
func writeSpans(name string, seed int64, spans []span) error {
	buf, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(scratchDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)), buf, 0o644)
}
