package analysis_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

// refMemo is the plain-map memo the compact Memo must be observably
// equivalent to.
type refMemo struct {
	m            map[analysis.OutcomeKey]analysis.Outcome
	hits, misses uint64
	journaled    []analysis.OutcomeKey
}

func (r *refMemo) lookup(k analysis.OutcomeKey) (analysis.Outcome, bool) {
	out, ok := r.m[k]
	if ok {
		r.hits++
	} else {
		r.misses++
	}
	return out, ok
}

func (r *refMemo) store(k analysis.OutcomeKey, out analysis.Outcome) {
	if _, ok := r.m[k]; !ok {
		r.journaled = append(r.journaled, k)
	}
	r.m[k] = out
}

// TestMemoMatchesReferenceMap drives the compact Memo and a reference
// map[OutcomeKey]Outcome with the same random Store/Preload/Lookup
// stream over a small key space, so keys collide often. The key pools
// include keys equal in everything but Model, opens differing only in
// their Extra sites, U = +0 and -0 (one map key) and NaN (never equal).
// Every lookup result, the journal sequence, the counters and Len must
// match.
func TestMemoMatchesReferenceMap(t *testing.T) {
	base := defect.Open{ID: 4, Site: "open4"}
	withExtra := func(ohms float64) defect.Open {
		o := base
		o.Extra = []defect.SiteOhms{{Site: "open1", Ohms: ohms}}
		return o
	}
	models := []analysis.Fingerprint{"", "behav:0123456789abcdef", "spice:0123456789abcdef"}
	opens := []defect.Open{base, withExtra(0), withExtra(1e6), {ID: 5, Site: "open5"}}
	rdefs := []float64{1e4, 1e5, 3.2e5}
	netsets := [][]string{{"bt_cell"}, {"bt_cell", "bc_cell"}, nil}
	us := []float64{0, math.Copysign(0, -1), 1.65, math.NaN()}
	soses := []fp.SOS{
		fp.NewSOS(fp.Init0),
		fp.NewSOS(fp.Init1, fp.R(1)),
		fp.NewSOS(fp.Init0, fp.W(1), fp.R(1)),
		fp.NewSOS(fp.InitNone, fp.CWBL(0), fp.R(0)),
	}
	outcomes := []analysis.Outcome{{F: 0}, {F: 1}, {F: 0, R: fp.R1}, {F: 1, R: fp.R0}}

	rng := rand.New(rand.NewSource(1))
	randKey := func() analysis.OutcomeKey {
		return analysis.NewOutcomeKey(models[rng.Intn(len(models))], opens[rng.Intn(len(opens))],
			rdefs[rng.Intn(len(rdefs))], netsets[rng.Intn(len(netsets))],
			us[rng.Intn(len(us))], soses[rng.Intn(len(soses))])
	}

	memo := analysis.NewMemo()
	ref := &refMemo{m: map[analysis.OutcomeKey]analysis.Outcome{}}
	var journaled []analysis.OutcomeKey
	memo.Journal(func(k analysis.OutcomeKey, _ analysis.Outcome) { journaled = append(journaled, k) })

	for i := 0; i < 20000; i++ {
		k := randKey()
		switch op := rng.Intn(10); {
		case op < 3:
			out := outcomes[rng.Intn(len(outcomes))]
			if prev, ok := ref.m[k]; ok {
				out = prev // outcomes are deterministic per key
			}
			memo.Store(k, out)
			ref.store(k, out)
		case op < 4:
			out := outcomes[rng.Intn(len(outcomes))]
			if prev, ok := ref.m[k]; ok {
				out = prev
			}
			memo.Preload(k, out)
			ref.m[k] = out
		default:
			got, gotOK := memo.Lookup(k)
			want, wantOK := ref.lookup(k)
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: Lookup(%+v) = %+v,%v; reference %+v,%v", i, k, got, gotOK, want, wantOK)
			}
		}
	}

	if len(journaled) != len(ref.journaled) {
		t.Fatalf("journal fired %d times, reference %d", len(journaled), len(ref.journaled))
	}
	for i := range journaled {
		a, b := journaled[i], ref.journaled[i]
		if a.Model != b.Model || a.OpenID != b.OpenID || a.Site != b.Site || a.Nets != b.Nets ||
			a.SOS != b.SOS || math.Float64bits(a.RDef) != math.Float64bits(b.RDef) ||
			math.Float64bits(a.U) != math.Float64bits(b.U) {
			t.Fatalf("journal entry %d = %+v, reference %+v", i, a, b)
		}
	}
	st := memo.Snapshot()
	if st.Hits != ref.hits || st.Misses != ref.misses {
		t.Fatalf("counters %+v, reference hits %d misses %d", st, ref.hits, ref.misses)
	}
	if memo.Len() != len(ref.m) {
		t.Fatalf("Len = %d, reference %d", memo.Len(), len(ref.m))
	}
	if ref.hits == 0 || ref.misses == 0 || len(ref.journaled) == 0 {
		t.Fatalf("degenerate stream: %d hits, %d misses, %d new keys", ref.hits, ref.misses, len(ref.journaled))
	}
}

// TestMemoKeyDistinctions pins the key distinctions the interned form
// must keep: Model alone, Extra sites alone, and U's zero sign (which,
// as in OutcomeKey, is not a distinction). It also pins that known keys
// cost no allocation.
func TestMemoKeyDistinctions(t *testing.T) {
	open := defect.Open{ID: 4, Site: "open4"}
	extra := open
	extra.Extra = []defect.SiteOhms{{Site: "open1", Ohms: 0}}
	sos := fp.NewSOS(fp.Init1, fp.R(1))
	nets := []string{"bt_cell"}

	memo := analysis.NewMemo()
	kBehav := analysis.NewOutcomeKey("behav:1", open, 1e5, nets, 0, sos)
	memo.Store(kBehav, analysis.Outcome{F: 1, R: fp.R1})

	for name, k := range map[string]analysis.OutcomeKey{
		"other model": analysis.NewOutcomeKey("spice:1", open, 1e5, nets, 0, sos),
		"extra site":  analysis.NewOutcomeKey("behav:1", extra, 1e5, nets, 0, sos),
	} {
		if out, ok := memo.Lookup(k); ok {
			t.Errorf("%s: hit %+v of a distinct key", name, out)
		}
	}
	negZero := analysis.NewOutcomeKey("behav:1", open, 1e5, nets, math.Copysign(0, -1), sos)
	if out, ok := memo.Lookup(negZero); !ok || out != (analysis.Outcome{F: 1, R: fp.R1}) {
		t.Errorf("U = -0 lookup = %+v,%v; want the U = +0 entry", out, ok)
	}

	// Interning must not allocate per lookup or per repeated store
	// (journal preload runs one Preload per log line).
	if n := testing.AllocsPerRun(100, func() {
		memo.Lookup(kBehav)
		memo.Store(kBehav, analysis.Outcome{F: 1, R: fp.R1})
		memo.Preload(kBehav, analysis.Outcome{F: 1, R: fp.R1})
	}); n != 0 {
		t.Errorf("Lookup/Store/Preload of a known key allocate %v times", n)
	}
}

// TestMemoRejectsOutOfRangeOutcome checks the packed store refuses an
// outcome it could not round-trip.
func TestMemoRejectsOutOfRangeOutcome(t *testing.T) {
	k := analysis.NewOutcomeKey("m:1", defect.Open{ID: 1, Site: "s"}, 1e5, nil, 0, fp.NewSOS(fp.Init0))
	for _, out := range []analysis.Outcome{{F: 2}, {F: -1}, {F: 0, R: fp.ReadResult(3)}, {F: 256}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Store(%+v) did not panic", out)
				}
			}()
			analysis.NewMemo().Store(k, out)
		}()
	}
}
