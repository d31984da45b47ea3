// Equivalence and regression tests for the performance layer. They live
// in an external test package so they can exercise both factories —
// behav imports analysis, so the in-package tests cannot import behav.
package analysis_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/numeric"
)

func mustOpen(t *testing.T, id int) defect.Open {
	t.Helper()
	o, ok := defect.ByID(id)
	if !ok {
		t.Fatalf("Open %d missing", id)
	}
	return o
}

// TestSweepPlaneFailingFactoryReturnsError is the regression test for
// the error-path deadlock: the old worker-pool sweep had workers return
// on error while the producer kept blocking on an unbuffered job
// channel. Every point failing — more points than pool slots — must
// still terminate and surface an error.
func TestSweepPlaneFailingFactoryReturnsError(t *testing.T) {
	boom := errors.New("boom")
	failing := analysis.Factory(func(defect.Open, float64) (analysis.Memory, error) {
		return nil, boom
	})
	done := make(chan error, 1)
	go func() {
		_, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: failing,
			Open:    mustOpen(t, 4),
			Float:   mustOpen(t, 4).Floats[0],
			SOS:     fp.NewSOS(fp.Init1, fp.R(1)),
			RDefs:   numeric.Logspace(1e3, 1e7, 6),
			Us:      numeric.Linspace(0, 3.3, 6),
			// Fewer slots than failing points: the old code deadlocked here.
			Parallelism: 2,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("want the factory error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SweepPlane deadlocked on an always-failing factory")
	}
}

// sweepBoth runs the same sweep twice — once naively (fresh build per
// point, no caches) and once through the full performance layer (pool,
// memo, replay or pooled factory) — and requires bit-for-bit identical
// planes. Outcomes feed golden tables, so "close" is not enough.
func sweepBoth(t *testing.T, naive, fast analysis.Factory, open defect.Open, soses []fp.SOS, rdefs, us []float64) {
	t.Helper()
	group := open.Floats[0]
	memo := analysis.NewMemo()
	pool := analysis.NewPool(4)
	replay := analysis.NewReplayCache(fast, open, group.Nets)
	defer replay.Close()
	for _, sos := range soses {
		plain, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: naive, Open: open, Float: group, SOS: sos,
			RDefs: rdefs, Us: us,
		})
		if err != nil {
			t.Fatalf("naive sweep %q: %v", sos, err)
		}
		cached, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: fast, Open: open, Float: group, SOS: sos,
			RDefs: rdefs, Us: us,
			Memo: memo, Replay: replay, Pool: pool,
		})
		if err != nil {
			t.Fatalf("cached sweep %q: %v", sos, err)
		}
		if !reflect.DeepEqual(plain.Points, cached.Points) {
			t.Fatalf("sweep %q: pooled/memoized plane differs from fresh-build plane\nnaive:  %+v\ncached: %+v", sos, plain.Points, cached.Points)
		}
		// A second cached pass must be served from the memo and stay
		// identical.
		again, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: fast, Open: open, Float: group, SOS: sos,
			RDefs: rdefs, Us: us,
			Memo: memo, Replay: replay, Pool: pool,
		})
		if err != nil {
			t.Fatalf("memoized sweep %q: %v", sos, err)
		}
		if !reflect.DeepEqual(plain.Points, again.Points) {
			t.Fatalf("sweep %q: memoized re-sweep differs from fresh-build plane", sos)
		}
	}
	if hits, _ := memo.Stats(); hits == 0 {
		t.Fatal("memo recorded no hits; the re-sweep did not exercise the cache")
	}
	if _, replayed := replay.Stats(); replayed == 0 {
		t.Fatal("replay cache served no steps; the sweeps did not exercise the prefix tree")
	}
}

// TestSweepEquivalenceBehav proves the caches change nothing for the
// analytical model: realistic Figure 3 grid, read and write SOSes.
func TestSweepEquivalenceBehav(t *testing.T) {
	factory := behav.NewFactory(behav.DefaultParams())
	sweepBoth(t, factory, factory, mustOpen(t, 4),
		[]fp.SOS{
			fp.NewSOS(fp.Init1, fp.R(1)),
			fp.NewSOS(fp.Init0, fp.W(1)),
			fp.NewSOS(fp.Init1),
		},
		numeric.Logspace(1e4, 1e8, 6),
		numeric.Linspace(0, 4.6, 5),
	)
}

// TestSweepEquivalenceSpice proves the same for the electrical column,
// additionally crossing column lifetimes: the naive side builds every
// column from scratch while the fast side recycles pooled columns
// through Reset and serves prefixes from the replay tree.
func TestSweepEquivalenceSpice(t *testing.T) {
	if testing.Short() {
		t.Skip("transient sweeps are slow; run without -short")
	}
	tech := dram.Default()
	sweepBoth(t, analysis.FreshSpiceFactory(tech), analysis.NewPooledSpiceFactory(tech), mustOpen(t, 4),
		// The state-fault SOS shares its setup prefix with 1r1, so the
		// second sweep exercises the replay tree.
		[]fp.SOS{fp.NewSOS(fp.Init1, fp.R(1)), fp.NewSOS(fp.Init1)},
		numeric.Logspace(1e4, 1e7, 3),
		numeric.Linspace(0, 3.3, 3),
	)
}
