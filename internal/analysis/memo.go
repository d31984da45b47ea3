package analysis

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

// OutcomeKey identifies one RunSOS invocation up to simulation-relevant
// inputs: the model fingerprint of the Factory that runs it plus the
// defect, grid point and sensitizing sequence. Two runs with equal keys
// produce identical Outcomes, so the key is safe to memoize on — the
// Model field is what makes that hold across factories: the electrical
// and analytical models (and the same model under different
// technologies) produce different outcomes for otherwise identical
// inputs, and their keys differ in Model.
// The SOS is canonicalized to its simulated content — Init plus the
// (kind, target, data) of every operation — deliberately ignoring the
// Completing presentation flag, which RunSOS never reads.
type OutcomeKey struct {
	Model  Fingerprint
	OpenID int
	Site   string
	RDef   float64
	Nets   string
	U      float64
	SOS    string
}

// NewOutcomeKey builds the memo key for one SOS application under the
// given model. An empty model is allowed for single-factory pipelines
// (all keys then share it), but any cache that outlives one factory —
// the shared service memo, the persistent outcome store — must be fed
// keys with real fingerprints.
func NewOutcomeKey(model Fingerprint, open defect.Open, rdef float64, nets []string, u float64, sos fp.SOS) OutcomeKey {
	return OutcomeKey{
		Model:  model,
		OpenID: open.ID,
		Site:   siteKey(open),
		RDef:   rdef,
		Nets:   strings.Join(nets, ","),
		U:      u,
		SOS:    canonicalSOS(sos),
	}
}

// siteKey encodes the full injected-site set — multi-defect scenarios
// with the same primary site but different Extra lists must not share
// memo entries.
func siteKey(open defect.Open) string {
	if len(open.Extra) == 0 {
		return open.Site
	}
	var b strings.Builder
	b.WriteString(open.Site)
	for _, x := range open.Extra {
		fmt.Fprintf(&b, "+%s@%g", x.Site, x.Ohms)
	}
	return b.String()
}

// canonicalSOS encodes exactly the fields RunSOS acts on.
func canonicalSOS(sos fp.SOS) string {
	var b strings.Builder
	b.Grow(1 + 3*len(sos.Ops))
	switch sos.Init {
	case fp.Init0:
		b.WriteByte('0')
	case fp.Init1:
		b.WriteByte('1')
	default:
		b.WriteByte('-')
	}
	for _, op := range sos.Ops {
		if op.Kind == fp.OpRead {
			b.WriteByte('r')
		} else {
			b.WriteByte('w')
		}
		if op.Target == fp.TargetBitLine {
			b.WriteByte('B')
		} else {
			b.WriteByte('v')
		}
		b.WriteByte('0' + byte(op.Data))
	}
	return b.String()
}

// Memo is a concurrency-safe outcome cache shared between the sweep,
// completion-search and inventory phases — and, in the service, across
// requests. Sharing across factories is safe when every caller keys with
// its factory's Fingerprint (see NewOutcomeKey): keys of different
// models never collide. A memo fed empty-Model keys must still only be
// shared between calls using the same Factory.
//
// Entries are stored compactly: the key's strings are interned into
// small ids, and the outcome is packed into two bytes, so a long-lived
// service memo costs a fixed ~50 B per entry instead of a full
// OutcomeKey plus its strings.
type Memo struct {
	mu           sync.Mutex
	m            map[memoKey]packedOutcome
	ids          map[string]uint32
	hits, misses uint64

	// journal, when non-nil, receives every newly stored entry — the
	// write-through hook of the persistent outcome log.
	journal func(OutcomeKey, Outcome)
}

// memoKey is an OutcomeKey with its strings replaced by intern ids. The
// floats stay floats, so ±0 and NaN compare exactly as in OutcomeKey.
type memoKey struct {
	model, site, nets, sos uint32
	openID                 int
	rdef, u                float64
}

// packedOutcome holds an Outcome's F and R in one byte each.
type packedOutcome [2]uint8

func pack(out Outcome) packedOutcome {
	if !out.Valid() {
		panic(fmt.Sprintf("analysis: memo: outcome %+v out of range", out))
	}
	return packedOutcome{uint8(out.F), uint8(out.R)}
}

func (p packedOutcome) unpack() Outcome {
	return Outcome{F: int(p[0]), R: fp.ReadResult(p[1])}
}

// NewMemo returns an empty outcome cache.
func NewMemo() *Memo {
	return &Memo{m: map[memoKey]packedOutcome{}, ids: map[string]uint32{}}
}

// key maps k to its compact form. With intern set it assigns ids to new
// strings; otherwise it reports false when a string has never been
// stored, in which case no entry can match k.
func (mm *Memo) key(k OutcomeKey, intern bool) (memoKey, bool) {
	var ids [4]uint32
	for i, s := range [4]string{string(k.Model), k.Site, k.Nets, k.SOS} {
		id, ok := mm.ids[s]
		if !ok {
			if !intern {
				return memoKey{}, false
			}
			if len(mm.ids) == math.MaxUint32 {
				panic("analysis: memo: intern table full")
			}
			id = uint32(len(mm.ids))
			mm.ids[s] = id
		}
		ids[i] = id
	}
	return memoKey{model: ids[0], site: ids[1], nets: ids[2], sos: ids[3],
		openID: k.OpenID, rdef: k.RDef, u: k.U}, true
}

// Journal installs a write-through hook invoked (under the memo lock,
// in store order) for every entry Store newly records. Seed entries
// loaded with Preload do not re-journal.
func (mm *Memo) Journal(fn func(OutcomeKey, Outcome)) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.journal = fn
}

// Preload inserts an entry without notifying the journal and without
// touching the hit/miss counters — used to warm the memo from a
// persistent log.
func (mm *Memo) Preload(k OutcomeKey, out Outcome) {
	p := pack(out)
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mk, _ := mm.key(k, true)
	mm.m[mk] = p
}

// Lookup returns the cached outcome for the key, if present.
func (mm *Memo) Lookup(k OutcomeKey) (Outcome, bool) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	var p packedOutcome
	mk, ok := mm.key(k, false)
	if ok {
		p, ok = mm.m[mk]
	}
	if !ok {
		mm.misses++
		return Outcome{}, false
	}
	mm.hits++
	return p.unpack(), true
}

// Store records an outcome. Later stores of the same key are idempotent
// by construction (deterministic simulation), so no precedence rule is
// needed; the journal only fires for keys not already present.
func (mm *Memo) Store(k OutcomeKey, out Outcome) {
	p := pack(out)
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mk, _ := mm.key(k, true)
	_, existed := mm.m[mk]
	mm.m[mk] = p
	if mm.journal != nil && !existed {
		mm.journal(k, out)
	}
}

// Stats reports cumulative lookup hits and misses since construction.
// For per-phase reporting use Snapshot and MemoStats.Delta: reading the
// cumulative counters at each phase boundary double-counts every phase
// before it.
func (mm *Memo) Stats() (hits, misses uint64) {
	s := mm.Snapshot()
	return s.Hits, s.Misses
}

// MemoStats is a point-in-time reading of the memo's lookup counters.
type MemoStats struct {
	Hits, Misses uint64
}

// Total returns the number of lookups covered by the reading.
func (s MemoStats) Total() uint64 { return s.Hits + s.Misses }

// HitRate returns Hits/Total, or 0 for an empty reading.
func (s MemoStats) HitRate() float64 {
	if t := s.Total(); t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Delta returns the counter movement since an earlier snapshot — the
// per-phase accessor: snapshot at the phase boundary, subtract.
func (s MemoStats) Delta(since MemoStats) MemoStats {
	return MemoStats{Hits: s.Hits - since.Hits, Misses: s.Misses - since.Misses}
}

// Snapshot atomically reads the cumulative counters.
func (mm *Memo) Snapshot() MemoStats {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return MemoStats{Hits: mm.hits, Misses: mm.misses}
}

// Len returns the number of cached outcomes.
func (mm *Memo) Len() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return len(mm.m)
}
