package behav_test

import (
	"math"
	"testing"

	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/stress"
)

// kernelParams returns the default analytical parameters followed by
// those of every built-in stress corner: corners move VDD, VPP and the
// temperature-scaled resistances, so each is its own coefficient set.
func kernelParams(tb testing.TB) []behav.Params {
	base := behav.DefaultParams()
	out := []behav.Params{base}
	for _, spec := range stress.DefaultCorners() {
		p, err := spec.DeriveParams(base)
		if err != nil {
			tb.Fatalf("corner %s: %v", spec.Name, err)
		}
		out = append(out, p)
	}
	return out
}

// TestKernelMatchesOracle compares the step kernel against the
// reference integrator on every phase-flag combination with both write
// data values, under the default parameters and every stress corner,
// from random site resistances and node states.
func TestKernelMatchesOracle(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for pi, p := range kernelParams(t) {
		for flags := uint16(0); flags < 1<<behav.NumPhaseFlags; flags++ {
			for trial := 0; trial < trials; trial++ {
				seed := int64(pi)<<32 | int64(flags)<<8 | int64(trial)
				if d := behav.KernelMismatch(p, flags, seed, math.NaN()); d != "" {
					t.Fatalf("params %d: %s", pi, d)
				}
			}
		}
	}
}

// FuzzKernelMatchesOracle explores phase flags, seeds, corners and raw
// node voltages beyond the exhaustive table.
func FuzzKernelMatchesOracle(f *testing.F) {
	f.Add(uint16(0x1ff), int64(1), uint8(0), 2.5)
	f.Add(uint16(0x3ff), int64(7), uint8(1), math.Copysign(0, -1))
	f.Add(uint16(0x02c), int64(42), uint8(2), -0.25)
	params := kernelParams(f)
	f.Fuzz(func(t *testing.T, flags uint16, seed int64, corner uint8, u float64) {
		p := params[int(corner)%len(params)]
		flags &= 1<<behav.NumPhaseFlags - 1
		if d := behav.KernelMismatch(p, flags, seed, u); d != "" {
			t.Fatal(d)
		}
	})
}

// BenchmarkWriteOpen5 times one write on Open 5 at 1 MΩ, 2720 kernel
// steps over eight phases.
func BenchmarkWriteOpen5(b *testing.B) {
	m := behav.New(behav.DefaultParams())
	m.SetSiteResistance(dram.SiteOpen5BLCell, 1e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(0, i&1); err != nil {
			b.Fatal(err)
		}
	}
}
