// Package service exposes the partial-fault analysis pipeline as a
// long-running JSON HTTP API: Table 1 inventories, march coverage
// matrices, two-cell certificates, the static detection matrix and the
// net-merge prover, with request batching, singleflight de-duplication
// of concurrent identical requests, and a disk-persistent
// content-addressed result store shared across restarts.
//
// Every cacheable result is addressed by a store.Key built from the
// model fingerprint (engine kind + netlist + technology), the
// fault/defect catalog fingerprint, the request kind and the canonical
// request spec — so changing the netlist, the technology or a catalog
// silently invalidates everything it affects, and nothing else.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/analysis/store"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/netlint"
	"github.com/memtest/partialfaults/internal/numeric"
	"github.com/memtest/partialfaults/internal/report"
	"github.com/memtest/partialfaults/internal/stress"
)

// Config parameterizes a Server.
type Config struct {
	// StoreDir, when non-empty, persists results (content-addressed
	// blobs) and point outcomes (append-only log) under this directory.
	// Empty means in-memory caching only.
	StoreDir string
	// Parallelism bounds concurrent simulations across ALL requests;
	// 0 means GOMAXPROCS.
	Parallelism int
	// Params tunes the analytical model; nil means behav.DefaultParams.
	Params *behav.Params
	// Tech selects the electrical technology; nil means dram.Default.
	Tech *dram.Technology
}

// Server is the analysis service. It is an http.Handler; all state is
// safe for concurrent use.
type Server struct {
	mux  *http.ServeMux
	pool *analysis.Pool
	memo *analysis.Memo

	params behav.Params
	tech   dram.Technology

	behavModel analysis.Fingerprint
	spiceModel analysis.Fingerprint
	catalogFP  string

	store  *store.Store // nil when StoreDir is empty
	outLog *store.OutcomeLog

	flights *flightGroup
	trace   *analysis.TraceCounters

	mu       sync.Mutex
	requests map[string]uint64
	// stressMatrices and stressCorners count stress matrices actually
	// computed (store hits and collapsed flights excluded) and the
	// corner pipelines they swept.
	stressMatrices uint64
	stressCorners  uint64

	bootMemo analysis.MemoStats

	// responseWriteErrors counts batch responses that failed to reach
	// the client after the work was done.
	responseWriteErrors atomic.Uint64
}

// New builds a Server, opening (or creating) the persistent store when
// configured.
func New(cfg Config) (*Server, error) {
	s := &Server{
		mux:      http.NewServeMux(),
		pool:     analysis.NewPool(cfg.Parallelism),
		memo:     analysis.NewMemo(),
		params:   behav.DefaultParams(),
		tech:     dram.Default(),
		flights:  newFlightGroup(),
		trace:    &analysis.TraceCounters{},
		requests: map[string]uint64{},
	}
	if cfg.Params != nil {
		s.params = *cfg.Params
	}
	if cfg.Tech != nil {
		s.tech = *cfg.Tech
		s.params.Tech = *cfg.Tech
	}
	s.behavModel = behav.Fingerprint(s.params)
	spiceFP, err := analysis.SpiceFingerprint(s.tech)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.spiceModel = spiceFP
	s.catalogFP = catalogFingerprint()

	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.store = st
		log, err := store.OpenOutcomeLog(filepath.Join(cfg.StoreDir, "outcomes.jsonl"), s.memo)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.outLog = log
	}
	s.bootMemo = s.memo.Snapshot()

	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/inventory", s.handleInventory)
	s.mux.HandleFunc("POST /v1/coverage", s.handleCoverage)
	s.mux.HandleFunc("POST /v1/twocell", s.handleTwoCell)
	s.mux.HandleFunc("POST /v1/matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("POST /v1/stress", s.handleStress)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	return s, nil
}

// MaxBodyBytes bounds a request body. A larger body is refused with 413
// before it is decoded.
const MaxBodyBytes = 1 << 20

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// Close detaches the persistent outcome log. In-flight requests keep
// their memo; new outcomes just stop persisting. Shutdown closes it
// only once the in-flight computations are done.
func (s *Server) Close() error {
	if s.outLog != nil {
		return s.outLog.Close()
	}
	return nil
}

// Shutdown waits until no computation is in flight, or until ctx ends,
// and then closes the server. A computation whose every caller has left
// is cancelled, so once the HTTP server has stopped handling requests
// the wait ends when the last computation notices. Shutdown returns
// ctx's error when it closed the server with computations still
// running (their outcomes then stop persisting).
func (s *Server) Shutdown(ctx context.Context) error {
	waitErr := s.flights.Wait(ctx)
	if err := s.Close(); err != nil {
		return err
	}
	return waitErr
}

// catalogFingerprint digests every fault/defect catalog the service
// ranges over: the simulated opens, the short/bridge catalog, the march
// test library, and the single- and two-cell fault catalogs. Any
// catalog change invalidates every stored result that could depend on
// it.
func catalogFingerprint() string {
	var parts []string
	for _, o := range defect.SimulatedOpens() {
		parts = append(parts, fmt.Sprintf("open:%d:%s:%v", o.ID, o.Site, o.Floats))
	}
	for _, sb := range defect.ShortsAndBridges() {
		parts = append(parts, "sb:"+sb.Site)
	}
	for _, t := range march.All() {
		parts = append(parts, "test:"+t.Name+":"+t.String())
	}
	for _, e := range march.ClassicalFaultCatalog() {
		parts = append(parts, "single:"+e.Name)
	}
	for _, e := range march.PaperFaultCatalog() {
		parts = append(parts, "paper:"+e.Name)
	}
	for _, e := range march.TwoCellCatalog() {
		parts = append(parts, "two:"+e.Name)
	}
	return string(analysis.NewFingerprint("catalog", parts...))
}

// --- request plumbing ---

type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func (s *Server) countRequest(kind string) {
	s.mu.Lock()
	s.requests[kind]++
	s.mu.Unlock()
}

// cached serves one cacheable request: store lookup, then singleflight
// on the key digest, then compute + store write-through. compute runs
// under the flight's context, which outlives ctx while other requests
// still wait for the result; ctx bounds only this caller's wait. The
// returned flags report whether the payload came from the persistent
// store and whether this caller joined another's in-flight computation.
func (s *Server) cached(ctx context.Context, key store.Key, compute func(context.Context) (any, error)) (payload []byte, fromStore, collapsed bool, err error) {
	if s.store != nil {
		if buf, ok, err := s.store.Get(key); err != nil {
			return nil, false, false, err
		} else if ok {
			return buf, true, false, nil
		}
	}
	payload, collapsed, err = s.flights.Do(ctx, key.Digest(), func(ctx context.Context) ([]byte, error) {
		// Re-check under the flight: a concurrent leader may have
		// persisted the result between our miss and our takeoff.
		if s.store != nil {
			if buf, ok, err := s.store.Get(key); err != nil {
				return nil, err
			} else if ok {
				return buf, nil
			}
		}
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		buf, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		if s.store != nil {
			if err := s.store.Put(key, buf); err != nil {
				return nil, err
			}
		}
		return buf, nil
	})
	return payload, false, collapsed, err
}

// envelopeJSON wraps every cacheable response: the result payload plus
// serving metadata (never part of the stored blob).
func writeResult(w http.ResponseWriter, payload []byte, fromStore, collapsed bool) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"cached":%v,"collapsed":%v,"result":`, fromStore, collapsed)
	w.Write(payload)
	io.WriteString(w, "}\n")
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	if errors.As(err, &ae) {
		status = ae.status
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body larger than %d bytes", tooLarge.Limit)}
		}
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// canonicalSpec renders a normalized request as the store-key spec.
// json.Marshal of a struct is deterministic (fields in declaration
// order), so equal requests produce equal specs.
func canonicalSpec(v any) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// --- health and metrics ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"ok":true}`+"\n")
}

// MetricsResponse is the /v1/metrics payload.
type MetricsResponse struct {
	Requests map[string]uint64 `json:"requests"`
	// SingleflightCollapsed counts requests that joined another
	// caller's in-flight computation instead of starting their own.
	SingleflightCollapsed uint64 `json:"singleflight_collapsed"`
	// Memo is the outcome-cache counter movement since boot — a
	// Snapshot/Delta reading, not the raw cumulative counters (which
	// include entries replayed from the persistent log and would
	// double-count across phases).
	Memo struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		HitRate float64 `json:"hit_rate"`
		Entries int     `json:"entries"`
	} `json:"memo"`
	Store *StoreMetrics `json:"store,omitempty"`
	// Trace reports traced-sweep work since boot: how many planes ran
	// in traced mode, how many grid points were simulated vs inferred
	// without simulation, and the resulting reduction factor.
	Trace struct {
		Planes    int     `json:"planes"`
		Simulated int     `json:"simulated"`
		Inferred  int     `json:"inferred"`
		Reduction float64 `json:"reduction"`
	} `json:"trace"`
	// Stress counts stress matrices actually computed (store hits and
	// collapsed singleflights excluded) and the corner pipelines swept.
	Stress struct {
		Matrices uint64 `json:"matrices"`
		Corners  uint64 `json:"corners"`
	} `json:"stress"`
	Models struct {
		Behav string `json:"behav"`
		Spice string `json:"spice"`
	} `json:"models"`
	Catalog string `json:"catalog"`
	// ResponseWriteErrors counts batch responses that could not be
	// written to the client (typically because it hung up).
	ResponseWriteErrors uint64 `json:"response_write_errors"`
}

// StoreMetrics is the persistent-store block of /v1/metrics.
type StoreMetrics struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	Len    int    `json:"len"`
	// JournalWriteErrors counts outcome-journal appends that failed:
	// those outcomes were served but will not survive a restart.
	JournalWriteErrors uint64 `json:"journal_write_errors"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var resp MetricsResponse
	resp.Requests = map[string]uint64{}
	s.mu.Lock()
	for k, v := range s.requests {
		resp.Requests[k] = v
	}
	resp.Stress.Matrices = s.stressMatrices
	resp.Stress.Corners = s.stressCorners
	s.mu.Unlock()
	resp.SingleflightCollapsed = s.flights.Collapsed()
	d := s.memo.Snapshot().Delta(s.bootMemo)
	resp.Memo.Hits, resp.Memo.Misses, resp.Memo.HitRate = d.Hits, d.Misses, d.HitRate()
	resp.Memo.Entries = s.memo.Len()
	if s.store != nil {
		st := s.store.Stats()
		n, _ := s.store.Len()
		resp.Store = &StoreMetrics{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, Len: n,
			JournalWriteErrors: s.outLog.WriteErrors()}
	}
	ts, planes := s.trace.Snapshot()
	resp.Trace.Planes = planes
	resp.Trace.Simulated = ts.Simulated()
	resp.Trace.Inferred = ts.Inferred
	resp.Trace.Reduction = ts.Reduction()
	resp.Models.Behav = string(s.behavModel)
	resp.Models.Spice = string(s.spiceModel)
	resp.Catalog = s.catalogFP
	resp.ResponseWriteErrors = s.responseWriteErrors.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// --- inventory ---

// InventoryRequest asks for the Table 1 pipeline over a grid.
type InventoryRequest struct {
	// Engine is "behav" (default) or "spice".
	Engine string `json:"engine,omitempty"`
	// Opens restricts the analyzed opens by ID; empty means all
	// simulated opens.
	Opens []int `json:"opens,omitempty"`
	// RDefs/Us are explicit grid axes; when empty the Min/Max/Steps
	// triples apply (log-spaced resistances, linear voltages).
	RDefs     []float64 `json:"rdefs,omitempty"`
	Us        []float64 `json:"us,omitempty"`
	RDefMin   float64   `json:"rdef_min,omitempty"`
	RDefMax   float64   `json:"rdef_max,omitempty"`
	RDefSteps int       `json:"rdef_steps,omitempty"`
	UMin      float64   `json:"u_min,omitempty"`
	UMax      float64   `json:"u_max,omitempty"`
	USteps    int       `json:"u_steps,omitempty"`
	// Sweep is "dense" (default) or "traced". The traced sweep can
	// miss rows the dense sweep finds (two Table-1 rows on the
	// benchmark's 5×4 analytical grid), so a traced request keeps
	// "traced" in its store key; a dense request's key carries no sweep
	// field, the same key it has always had.
	Sweep string `json:"sweep,omitempty"`
}

// normalize validates the request and derives explicit grid axes. It
// returns the sweep mode separately, zeroes the consumed Min/Max/Steps
// triples and rewrites Sweep to its canonical spec form (see
// canonicalSweep), so canonicalSpec — and therefore the store key — is
// shared by every request asking for the same result in the same mode.
func (q *InventoryRequest) normalize() (analysis.SweepMode, error) {
	mode, err := canonicalSweep(&q.Sweep)
	if err != nil {
		return "", err
	}
	if q.Engine == "" {
		q.Engine = "behav"
	}
	if q.Engine != "behav" && q.Engine != "spice" {
		return "", badRequest("unknown engine %q (want behav or spice)", q.Engine)
	}
	if len(q.RDefs) == 0 {
		if q.RDefMin == 0 {
			q.RDefMin = 1e3
		}
		if q.RDefMax == 0 {
			q.RDefMax = 1e7
		}
		if q.RDefSteps == 0 {
			q.RDefSteps = 13
		}
		q.RDefs = numeric.Logspace(q.RDefMin, q.RDefMax, q.RDefSteps)
	}
	if len(q.Us) == 0 {
		if q.UMax == 0 {
			q.UMax = 3.3
		}
		if q.USteps == 0 {
			q.USteps = 12
		}
		q.Us = numeric.Linspace(q.UMin, q.UMax, q.USteps)
	}
	q.RDefMin, q.RDefMax, q.RDefSteps = 0, 0, 0
	q.UMin, q.UMax, q.USteps = 0, 0, 0
	sort.Ints(q.Opens)
	return mode, nil
}

// canonicalSweep parses a request's sweep field and rewrites it for the
// store key: empty for dense, which keeps dense keys (and stores written
// before traced results were keyed apart) valid, and "traced" for traced.
func canonicalSweep(sweep *string) (analysis.SweepMode, error) {
	mode, err := analysis.ParseSweepMode(*sweep)
	if err != nil {
		return "", badRequest("%v", err)
	}
	*sweep = ""
	if mode == analysis.SweepTraced {
		*sweep = string(mode)
	}
	return mode, nil
}

func (s *Server) model(engine string) analysis.Fingerprint {
	if engine == "spice" {
		return s.spiceModel
	}
	return s.behavModel
}

func (s *Server) factory(engine string) analysis.Factory {
	if engine == "spice" {
		return analysis.NewSpiceFactory(s.tech)
	}
	return behav.NewFactory(s.params)
}

func (s *Server) handleInventory(w http.ResponseWriter, r *http.Request) {
	s.countRequest("inventory")
	var q InventoryRequest
	if err := decodeBody(r.Body, &q); err != nil {
		writeError(w, err)
		return
	}
	mode, err := q.normalize()
	if err != nil {
		writeError(w, err)
		return
	}
	var opens []defect.Open
	if len(q.Opens) > 0 {
		for _, id := range q.Opens {
			o, ok := defect.ByID(id)
			if !ok {
				writeError(w, badRequest("unknown open %d", id))
				return
			}
			opens = append(opens, o)
		}
	}
	spec, err := canonicalSpec(&q)
	if err != nil {
		writeError(w, err)
		return
	}
	key := store.Key{Model: string(s.model(q.Engine)), Catalog: s.catalogFP, Kind: "inventory", Spec: spec}
	payload, fromStore, collapsed, err := s.cached(r.Context(), key, func(ctx context.Context) (any, error) {
		rows, err := analysis.BuildInventory(analysis.InventoryConfig{
			Factory: s.factory(q.Engine),
			Opens:   opens,
			RDefs:   q.RDefs, Us: q.Us,
			Model: s.model(q.Engine),
			Ctx:   ctx,
			Memo:  s.memo, Pool: s.pool,
			Sweep: mode, Trace: s.trace,
		})
		if err != nil {
			return nil, err
		}
		return report.ToInventoryJSON(rows), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, payload, fromStore, collapsed)
}

// --- march coverage ---

// CoverageRequest asks for a coverage matrix.
type CoverageRequest struct {
	// Tests are march test names; empty means the whole library.
	Tests []string `json:"tests,omitempty"`
	// Catalog is "classical" (default) or "paper".
	Catalog string `json:"catalog,omitempty"`
	// Engine is "memsim" (default, scalar oracle) or "bitsim".
	Engine string `json:"engine,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Cols   int    `json:"cols,omitempty"`
}

func marchEngine(name string) (march.Engine, error) {
	switch name {
	case "", "memsim":
		return march.ScalarEngine{}, nil
	case "bitsim":
		return bitsim.New(), nil
	}
	return nil, badRequest("unknown march engine %q (want memsim or bitsim)", name)
}

func testsByName(names []string) ([]march.Test, error) {
	if len(names) == 0 {
		return march.All(), nil
	}
	byName := map[string]march.Test{}
	for _, t := range march.All() {
		byName[t.Name] = t
	}
	var out []march.Test
	for _, n := range names {
		t, ok := byName[n]
		if !ok {
			return nil, badRequest("unknown march test %q", n)
		}
		out = append(out, t)
	}
	return out, nil
}

func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	s.countRequest("coverage")
	var q CoverageRequest
	if err := decodeBody(r.Body, &q); err != nil {
		writeError(w, err)
		return
	}
	if q.Engine == "" {
		q.Engine = "memsim"
	}
	if q.Catalog == "" {
		q.Catalog = "classical"
	}
	if q.Rows == 0 {
		q.Rows = 4
	}
	if q.Cols == 0 {
		q.Cols = 2
	}
	eng, err := marchEngine(q.Engine)
	if err != nil {
		writeError(w, err)
		return
	}
	tests, err := testsByName(q.Tests)
	if err != nil {
		writeError(w, err)
		return
	}
	var catalog []march.CatalogEntry
	switch q.Catalog {
	case "classical":
		catalog = march.ClassicalFaultCatalog()
	case "paper":
		catalog = march.PaperFaultCatalog()
	default:
		writeError(w, badRequest("unknown catalog %q (want classical or paper)", q.Catalog))
		return
	}
	spec, err := canonicalSpec(&q)
	if err != nil {
		writeError(w, err)
		return
	}
	// March-walk results depend on the discrete fault model only, not
	// the electrical technology; key them under the engine name.
	key := store.Key{Model: "march:" + q.Engine, Catalog: s.catalogFP, Kind: "coverage", Spec: spec}
	payload, fromStore, collapsed, err := s.cached(r.Context(), key, func(ctx context.Context) (any, error) {
		var results []march.CoverageResult
		var werr error
		if err := s.pool.DoContext(ctx, func() {
			results, werr = march.CoverageMatrixWith(eng, tests, catalog, q.Rows, q.Cols)
		}); err != nil {
			return nil, err
		}
		if werr != nil {
			return nil, werr
		}
		return report.ToCoverageJSON(results), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, payload, fromStore, collapsed)
}

// --- two-cell certificate ---

// TwoCellRequest asks for a two-cell coverage certificate.
type TwoCellRequest struct {
	Test   string `json:"test"`
	Engine string `json:"engine,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Cols   int    `json:"cols,omitempty"`
	// Offsets restricts the aggressor set (aggressor = victim + δ);
	// empty means all ordered pairs.
	Offsets []int `json:"offsets,omitempty"`
}

func (s *Server) handleTwoCell(w http.ResponseWriter, r *http.Request) {
	s.countRequest("twocell")
	var q TwoCellRequest
	if err := decodeBody(r.Body, &q); err != nil {
		writeError(w, err)
		return
	}
	if q.Test == "" {
		writeError(w, badRequest("missing march test name"))
		return
	}
	if q.Engine == "" {
		q.Engine = "memsim"
	}
	if q.Rows == 0 {
		q.Rows = 4
	}
	if q.Cols == 0 {
		q.Cols = 2
	}
	seen := map[int]bool{}
	for _, d := range q.Offsets {
		if d == 0 {
			writeError(w, badRequest("offset 0 is not a neighbour"))
			return
		}
		if seen[d] {
			writeError(w, badRequest("duplicate offset %d", d))
			return
		}
		seen[d] = true
	}
	eng, err := marchEngine(q.Engine)
	if err != nil {
		writeError(w, err)
		return
	}
	tests, err := testsByName([]string{q.Test})
	if err != nil {
		writeError(w, err)
		return
	}
	spec, err := canonicalSpec(&q)
	if err != nil {
		writeError(w, err)
		return
	}
	key := store.Key{Model: "march:" + q.Engine, Catalog: s.catalogFP, Kind: "twocell", Spec: spec}
	payload, fromStore, collapsed, err := s.cached(r.Context(), key, func(ctx context.Context) (any, error) {
		var cert march.TwoCellCertificate
		var werr error
		if err := s.pool.DoContext(ctx, func() {
			cert, werr = march.TwoCellCertificateOffsetsWith(eng, tests[0], march.TwoCellCatalog(), q.Rows, q.Cols, q.Offsets)
		}); err != nil {
			return nil, err
		}
		if werr != nil {
			return nil, werr
		}
		return report.ToTwoCellCertificateJSON(cert), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, payload, fromStore, collapsed)
}

// --- static detection matrix ---

// MatrixRequest asks for the three-valued static detection matrix.
type MatrixRequest struct {
	Tests []string `json:"tests,omitempty"`
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	s.countRequest("matrix")
	var q MatrixRequest
	if err := decodeBody(r.Body, &q); err != nil {
		writeError(w, err)
		return
	}
	tests, err := testsByName(q.Tests)
	if err != nil {
		writeError(w, err)
		return
	}
	spec, err := canonicalSpec(&q)
	if err != nil {
		writeError(w, err)
		return
	}
	// The prover is purely symbolic: no model, no geometry.
	key := store.Key{Model: "prover", Catalog: s.catalogFP, Kind: "matrix", Spec: spec}
	payload, fromStore, collapsed, err := s.cached(r.Context(), key, func(ctx context.Context) (any, error) {
		var m march.DetectionMatrix
		if err := s.pool.DoContext(ctx, func() {
			m = march.BuildDetectionMatrix(tests, march.PaperFaultCatalog(), march.TwoCellCatalog())
		}); err != nil {
			return nil, err
		}
		return report.ToDetectionMatrixJSON(m), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, payload, fromStore, collapsed)
}

// --- merge / float prediction ---

// PredictRequest asks the static net prover for a verdict: either the
// floating-net prediction of an open, or the merge analysis of one or
// more short/bridge defects.
type PredictRequest struct {
	// Open is an open ID (1-9) for a float prediction.
	Open int `json:"open,omitempty"`
	// Defects are short/bridge sites for a merge prediction, each
	// optionally resistive.
	Defects []PredictDefect `json:"defects,omitempty"`
}

// PredictDefect is one short/bridge site, optionally resistive.
type PredictDefect struct {
	Site string  `json:"site"`
	Ohms float64 `json:"ohms,omitempty"`
}

// FloatPredictionJSON is the open-defect float prediction payload.
type FloatPredictionJSON struct {
	Open      int      `json:"open"`
	Element   string   `json:"element"`
	Primary   []string `json:"primary,omitempty"`
	Secondary []string `json:"secondary,omitempty"`
	Unknown   []string `json:"unknown,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.countRequest("predict")
	var q PredictRequest
	if err := decodeBody(r.Body, &q); err != nil {
		writeError(w, err)
		return
	}
	if (q.Open == 0) == (len(q.Defects) == 0) {
		writeError(w, badRequest("want exactly one of open or defects"))
		return
	}
	spec, err := canonicalSpec(&q)
	if err != nil {
		writeError(w, err)
		return
	}
	// Predictions depend on the netlist graph and phase model — the
	// electrical model fingerprint covers both.
	key := store.Key{Model: string(s.spiceModel), Catalog: s.catalogFP, Kind: "predict", Spec: spec}
	payload, fromStore, collapsed, err := s.cached(r.Context(), key, func(ctx context.Context) (any, error) {
		col, err := dram.NewColumn(s.tech)
		if err != nil {
			return nil, err
		}
		az := netlint.New(col.Circuit(), dram.LintModel())
		if q.Open != 0 {
			open, ok := defect.ByID(q.Open)
			if !ok {
				return nil, badRequest("unknown open %d", q.Open)
			}
			elem := dram.SiteElementName(open.Site)
			pred := az.PredictFloats([]string{elem})
			return FloatPredictionJSON{
				Open: open.ID, Element: elem,
				Primary: pred.Primary, Secondary: pred.Secondary, Unknown: pred.Unknown,
			}, nil
		}
		catalog := map[string]defect.ShortOrBridge{}
		for _, sb := range defect.ShortsAndBridges() {
			catalog[sb.Site] = sb
		}
		var ms netlint.MergeSpec
		for _, d := range q.Defects {
			if _, ok := catalog[d.Site]; !ok {
				return nil, badRequest("unknown defect site %q", d.Site)
			}
			ms.Elems = append(ms.Elems, netlint.MergeElem{Name: dram.SiteElementName(d.Site), Ohms: d.Ohms})
		}
		pred, err := az.PredictMergeSet(ms)
		if err != nil {
			return nil, err
		}
		return report.ToMergePredictionJSON(pred), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, payload, fromStore, collapsed)
}

// --- stress matrix ---

// StressRequest asks for the stress-condition scenario matrix: the
// defect catalog swept at every operating corner, with per-corner
// inventories and coverage, deltas against nominal, and the
// worst-corner coverage certificate.
type StressRequest struct {
	// Engine is "behav" (default) or "spice".
	Engine string `json:"engine,omitempty"`
	// MarchEngine is "memsim" (default) or "bitsim".
	MarchEngine string `json:"march_engine,omitempty"`
	// Corners is a semicolon-separated corner list (built-in names or
	// name:key=val,... derivations); empty means the built-in default
	// corners. A nominal corner is always ensured.
	Corners string `json:"corners,omitempty"`
	// Tests restricts the certified march tests; empty means the whole
	// library.
	Tests []string `json:"tests,omitempty"`
	// Opens restricts the analyzed opens by ID.
	Opens []int `json:"opens,omitempty"`
	// Grid axes, exactly as in InventoryRequest.
	RDefs     []float64 `json:"rdefs,omitempty"`
	Us        []float64 `json:"us,omitempty"`
	RDefMin   float64   `json:"rdef_min,omitempty"`
	RDefMax   float64   `json:"rdef_max,omitempty"`
	RDefSteps int       `json:"rdef_steps,omitempty"`
	UMin      float64   `json:"u_min,omitempty"`
	UMax      float64   `json:"u_max,omitempty"`
	USteps    int       `json:"u_steps,omitempty"`
	// Rows and Cols set the coverage-simulation geometry (default 4×2).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Sweep selects the plane sweep as in InventoryRequest, and is
	// keyed the same way.
	Sweep string `json:"sweep,omitempty"`
}

// normalize validates the request, derives grid axes, and rewrites
// Corners into its canonical form (parsed, nominal ensured, re-rendered
// via Spec.String) so equivalent corner lists share one store key.
func (q *StressRequest) normalize() ([]stress.Spec, analysis.SweepMode, error) {
	mode, err := canonicalSweep(&q.Sweep)
	if err != nil {
		return nil, "", err
	}
	if q.Engine == "" {
		q.Engine = "behav"
	}
	if q.Engine != "behav" && q.Engine != "spice" {
		return nil, "", badRequest("unknown engine %q (want behav or spice)", q.Engine)
	}
	if q.MarchEngine == "" {
		q.MarchEngine = "memsim"
	}
	corners := stress.DefaultCorners()
	if q.Corners != "" {
		corners, err = stress.ParseSpecs(q.Corners)
		if err != nil {
			return nil, "", badRequest("%v", err)
		}
	}
	corners = stress.EnsureNominal(corners)
	rendered := make([]string, len(corners))
	for i, c := range corners {
		rendered[i] = c.String()
	}
	q.Corners = strings.Join(rendered, ";")
	if len(q.RDefs) == 0 {
		if q.RDefMin == 0 {
			q.RDefMin = 1e3
		}
		if q.RDefMax == 0 {
			q.RDefMax = 1e7
		}
		if q.RDefSteps == 0 {
			q.RDefSteps = 13
		}
		q.RDefs = numeric.Logspace(q.RDefMin, q.RDefMax, q.RDefSteps)
	}
	if len(q.Us) == 0 {
		if q.UMax == 0 {
			q.UMax = 3.3
		}
		if q.USteps == 0 {
			q.USteps = 12
		}
		q.Us = numeric.Linspace(q.UMin, q.UMax, q.USteps)
	}
	q.RDefMin, q.RDefMax, q.RDefSteps = 0, 0, 0
	q.UMin, q.UMax, q.USteps = 0, 0, 0
	if q.Rows == 0 {
		q.Rows = 4
	}
	if q.Cols == 0 {
		q.Cols = 2
	}
	sort.Ints(q.Opens)
	return corners, mode, nil
}

func (s *Server) handleStress(w http.ResponseWriter, r *http.Request) {
	s.countRequest("stress")
	var q StressRequest
	if err := decodeBody(r.Body, &q); err != nil {
		writeError(w, err)
		return
	}
	corners, mode, err := q.normalize()
	if err != nil {
		writeError(w, err)
		return
	}
	var opens []defect.Open
	if len(q.Opens) > 0 {
		for _, id := range q.Opens {
			o, ok := defect.ByID(id)
			if !ok {
				writeError(w, badRequest("unknown open %d", id))
				return
			}
			opens = append(opens, o)
		}
	}
	marchEng, err := marchEngine(q.MarchEngine)
	if err != nil {
		writeError(w, err)
		return
	}
	tests, err := testsByName(q.Tests)
	if err != nil {
		writeError(w, err)
		return
	}
	// Reject invalid corners before keying: a corner that cannot derive
	// a lint-clean technology is a client error, not a cacheable result.
	for _, c := range corners {
		if _, derr := c.Derive(s.tech); derr != nil {
			writeError(w, badRequest("%v", derr))
			return
		}
	}
	spec, err := canonicalSpec(&q)
	if err != nil {
		writeError(w, err)
		return
	}
	// The stress matrix spans derived models, but every derivation is a
	// pure function of the base model and the corner list (in the spec) —
	// the base fingerprint therefore still addresses the result
	// correctly, and a base technology change invalidates every corner.
	key := store.Key{Model: string(s.model(q.Engine)), Catalog: s.catalogFP, Kind: "stress", Spec: spec}
	payload, fromStore, collapsed, err := s.cached(r.Context(), key, func(ctx context.Context) (any, error) {
		res, err := stress.Analyze(stress.Config{
			Corners: corners,
			Engine:  q.Engine,
			Params:  s.params, Tech: s.tech,
			MarchEngine: marchEng,
			Opens:       opens,
			RDefs:       q.RDefs, Us: q.Us,
			Tests: tests,
			Rows:  q.Rows, Cols: q.Cols,
			Pool: s.pool, Memo: s.memo,
			Ctx:   ctx,
			Sweep: mode, Trace: s.trace,
		})
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.stressMatrices++
		s.stressCorners += uint64(len(res.Corners))
		s.mu.Unlock()
		return report.ToStressJSON(res), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, payload, fromStore, collapsed)
}

// --- batch ---

// BatchItem is one sub-request of a batch: an endpoint kind plus its
// body.
type BatchItem struct {
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// BatchItemResult is one sub-response: the endpoint's full response
// body (envelope included) or its error.
type BatchItemResult struct {
	Kind   string          `json:"kind"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// MaxBatchItems bounds the sub-requests of one batch, each of which runs
// on its own goroutine. A larger batch is refused with 400.
const MaxBatchItems = 32

// handleBatch runs sub-requests concurrently through the shared pool
// and singleflight layer — identical items inside one batch collapse
// exactly like identical concurrent requests do.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.countRequest("batch")
	var q struct {
		Requests []BatchItem `json:"requests"`
	}
	if err := decodeBody(r.Body, &q); err != nil {
		writeError(w, err)
		return
	}
	if len(q.Requests) == 0 {
		writeError(w, badRequest("empty batch"))
		return
	}
	if len(q.Requests) > MaxBatchItems {
		writeError(w, badRequest("batch of %d requests exceeds the bound of %d", len(q.Requests), MaxBatchItems))
		return
	}
	handlers := map[string]http.HandlerFunc{
		"inventory": s.handleInventory,
		"coverage":  s.handleCoverage,
		"twocell":   s.handleTwoCell,
		"matrix":    s.handleMatrix,
		"predict":   s.handlePredict,
		"stress":    s.handleStress,
	}
	results := make([]BatchItemResult, len(q.Requests))
	var wg sync.WaitGroup
	for i, item := range q.Requests {
		h, ok := handlers[item.Kind]
		if !ok {
			results[i] = BatchItemResult{Kind: item.Kind, Status: http.StatusBadRequest,
				Error: fmt.Sprintf("unknown batch kind %q", item.Kind)}
			continue
		}
		wg.Add(1)
		go func(i int, item BatchItem, h http.HandlerFunc) {
			defer wg.Done()
			rec := newRecorder()
			sub, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "/v1/"+item.Kind, bytesReader(item.Body))
			if err != nil {
				results[i] = BatchItemResult{Kind: item.Kind, Status: http.StatusInternalServerError, Error: err.Error()}
				return
			}
			h(rec, sub)
			res := BatchItemResult{Kind: item.Kind, Status: rec.status}
			if rec.status == http.StatusOK {
				res.Body = json.RawMessage(rec.buf)
			} else {
				var e struct {
					Error string `json:"error"`
				}
				if json.Unmarshal(rec.buf, &e) == nil && e.Error != "" {
					res.Error = e.Error
				} else {
					res.Error = string(rec.buf)
				}
			}
			results[i] = res
		}(i, item, h)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]any{"responses": results}); err != nil {
		s.responseWriteErrors.Add(1)
	}
}
