package main

import (
	"sync/atomic"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
)

// deviceCounters accumulates what the device layer (behav or dram) does
// under one traced run: memories built by the factory, Write/Read/Idle
// calls and the wall time spent inside them, and SetFloat calls (the
// setup edges of the replay tree).
type deviceCounters struct {
	builds   atomic.Int64
	ops      atomic.Int64
	opNanos  atomic.Int64
	setFloat atomic.Int64
}

// countingFactory wraps f so that every memory it builds reports to c.
// The wrapper forwards exactly the optional interfaces the wrapped
// memory implements, so the pipeline takes the same paths with and
// without it: a dropped Snapshotter would silently disable replay, and
// an added one would break a memory that cannot snapshot.
func countingFactory(f analysis.Factory, c *deviceCounters) analysis.Factory {
	return func(open defect.Open, rdef float64) (analysis.Memory, error) {
		mem, err := f(open, rdef)
		if err != nil {
			return nil, err
		}
		c.builds.Add(1)
		return wrapMemory(mem, c), nil
	}
}

func wrapMemory(mem analysis.Memory, c *deviceCounters) analysis.Memory {
	t := &timedMemory{inner: mem, c: c}
	s, isSnap := mem.(analysis.Snapshotter)
	r, isRel := mem.(analysis.Releaser)
	p, isProbe := mem.(analysis.VoltageProber)
	sf, rf, pf := snapFwd{s}, relFwd{r}, probeFwd{p}
	switch {
	case isSnap && isRel && isProbe:
		return struct {
			*timedMemory
			snapFwd
			relFwd
			probeFwd
		}{t, sf, rf, pf}
	case isSnap && isRel:
		return struct {
			*timedMemory
			snapFwd
			relFwd
		}{t, sf, rf}
	case isSnap && isProbe:
		return struct {
			*timedMemory
			snapFwd
			probeFwd
		}{t, sf, pf}
	case isRel && isProbe:
		return struct {
			*timedMemory
			relFwd
			probeFwd
		}{t, rf, pf}
	case isSnap:
		return struct {
			*timedMemory
			snapFwd
		}{t, sf}
	case isRel:
		return struct {
			*timedMemory
			relFwd
		}{t, rf}
	case isProbe:
		return struct {
			*timedMemory
			probeFwd
		}{t, pf}
	}
	return t
}

// timedMemory counts and times the operations of the analysis.Memory
// interface proper.
type timedMemory struct {
	inner analysis.Memory
	c     *deviceCounters
}

func (m *timedMemory) op(start time.Time) {
	m.c.ops.Add(1)
	m.c.opNanos.Add(int64(time.Since(start)))
}

func (m *timedMemory) Write(cell, bit int) error {
	defer m.op(time.Now())
	return m.inner.Write(cell, bit)
}

func (m *timedMemory) Read(cell int) (int, error) {
	defer m.op(time.Now())
	return m.inner.Read(cell)
}

func (m *timedMemory) Idle() error {
	defer m.op(time.Now())
	return m.inner.Idle()
}

func (m *timedMemory) ForceVictim(bit int) { m.inner.ForceVictim(bit) }

func (m *timedMemory) SetFloat(nets []string, u float64) {
	m.c.setFloat.Add(1)
	m.inner.SetFloat(nets, u)
}

func (m *timedMemory) VictimBit() int { return m.inner.VictimBit() }

type snapFwd struct{ s analysis.Snapshotter }

func (f snapFwd) Snapshot() any     { return f.s.Snapshot() }
func (f snapFwd) Restore(state any) { f.s.Restore(state) }

type relFwd struct{ r analysis.Releaser }

func (f relFwd) Release() { f.r.Release() }

type probeFwd struct{ p analysis.VoltageProber }

func (f probeFwd) NetVoltage(net string) float64 { return f.p.NetVoltage(net) }
