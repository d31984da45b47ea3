package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/numeric"
)

// request is one POST of the serve-mixed stream.
type request struct {
	Endpoint string // "inventory", "coverage", ..., "batch"
	Body     string
	// New marks a body that was not in the fill pass: the server must
	// compute it (or join a concurrent computation of it).
	New bool
}

// The stream's shape. The fill pass writes hitPoolPerEndpoint bodies per
// endpoint to the store. The timed pass runs in blocks of blockLen
// requests: one new body at a seeded position, the rest hits. Every
// pairEvery-th new body is sent twice in a row, so that the two
// clients can collide on it. Counts are fixed rather than drawn, so
// that seeds differ in content but not in mix.
const (
	hitPoolPerEndpoint = 16
	blockLen           = 20
	pairEvery          = 3
)

// streamEndpoints are the seven POST endpoints of the service.
var streamEndpoints = []string{"inventory", "coverage", "twocell", "matrix", "predict", "stress", "batch"}

// stream is the seeded serve-mixed request sequence: a fill set (the
// hit pool) and an unbounded timed sequence of hits on it and
// never-seen bodies. The sequence depends on the seed alone.
type stream struct {
	rng   *rand.Rand
	seen  map[string]bool  // every body generated so far
	decks map[string][]int // see deal
	Fill  []request

	hits     []request // current hit cycle: the pool, shuffled
	newEps   []string  // current new-body endpoint cycle, shuffled
	pending  *request  // the second copy of a paired new body
	block    int       // position in the current block
	newAt    int       // position of the current block's new body
	newCount int       // new bodies generated
	invCount int       // inventory bodies generated
	filled   bool      // the hit pool is complete
}

func newStream(seed int64) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}, decks: map[string][]int{}}
	for i := 0; i < hitPoolPerEndpoint; i++ {
		for _, ep := range streamEndpoints {
			s.Fill = append(s.Fill, s.fresh(ep))
		}
	}
	s.newAt, s.filled = s.rng.Intn(blockLen), true
	return s
}

// Next returns the stream's next timed request. It is not safe for
// concurrent use.
func (s *stream) Next() request {
	if s.pending != nil {
		r := *s.pending
		s.pending = nil
		return r
	}
	pos := s.block
	if s.block++; s.block == blockLen {
		s.block, s.newAt = 0, s.rng.Intn(blockLen)
	}
	if pos != s.newAt {
		if len(s.hits) == 0 {
			s.hits = append([]request(nil), s.Fill...)
			s.rng.Shuffle(len(s.hits), func(i, j int) { s.hits[i], s.hits[j] = s.hits[j], s.hits[i] })
		}
		r := s.hits[0]
		s.hits = s.hits[1:]
		return r
	}
	if len(s.newEps) == 0 {
		s.newEps = append([]string(nil), streamEndpoints...)
		s.rng.Shuffle(len(s.newEps), func(i, j int) { s.newEps[i], s.newEps[j] = s.newEps[j], s.newEps[i] })
	}
	r := s.fresh(s.newEps[0])
	s.newEps = s.newEps[1:]
	r.New = true
	if s.newCount++; s.newCount%pairEvery == 0 {
		s.pending = &r
	}
	return r
}

// fresh draws a body for the endpoint that the stream has never
// produced before.
func (s *stream) fresh(ep string) request {
	for {
		body := s.body(ep)
		if !s.seen[body] {
			s.seen[body] = true
			return request{Endpoint: ep, Body: body}
		}
	}
}

// Body sizes are chosen so that no single miss costs much more than a
// second on a 2-CPU host; the 6 s default inventory grid and the
// six-corner default stress matrix are never drawn.
func (s *stream) body(ep string) string {
	switch ep {
	case "inventory":
		// One open on a 3 × 3 grid dealt from fine axes, so that new
		// bodies rarely share points with earlier ones: with coarse
		// axes the memo soon held every point and misses got cheaper
		// as a run went on. Two of the hit pool's inventory bodies ask
		// the electrical engine for one open at one resistance and two
		// voltages, so hits also read spice results. New bodies never
		// do: a spice miss costs 0.03–3 s depending on the open and the
		// resistance, and a few of them per run swung req_per_s by a
		// quarter between seeds.
		if s.invCount++; !s.filled && s.invCount%8 == 0 {
			return s.marshal(map[string]any{"engine": "spice", "opens": s.opens("spice", 1),
				"rdefs": s.pick("spice", rdefAxis[:121], 1), "us": s.pick("spice", uAxis[:34], 2)})
		}
		return s.marshal(map[string]any{"opens": s.opens(ep, 1),
			"rdefs": s.pick(ep, rdefAxis, 3), "us": s.pick(ep, uAxis, 3)})

	case "coverage":
		// One or two march tests against the classical or the paper
		// catalog on a 2–4 × 1–2 array, on either march engine: the
		// scalar simulator's cost grows with the array, bitsim's barely.
		return s.marshal(map[string]any{"tests": s.tests(ep, 1+s.one(ep+":tests", 2)),
			"catalog": s.choice(ep+":catalog", "classical", "paper"), "engine": s.choice(ep+":engine", "memsim", "bitsim"),
			"rows": 2 + s.one(ep+":rows", 3), "cols": 1 + s.one(ep+":cols", 2)})
	case "twocell":
		// One march test over the two-cell catalog on a 2–4 × 2 array,
		// with all aggressors or a random subset of offsets ±1, ±2.
		q := map[string]any{"test": s.tests(ep, 1)[0], "engine": s.choice(ep+":engine", "memsim", "bitsim"),
			"rows": 2 + s.one(ep+":rows", 3), "cols": 2}
		if offs := s.offsets(); len(offs) > 0 {
			q["offsets"] = offs
		}
		return s.marshal(q)
	case "matrix":
		// One to three tests through the static prover; the cost is
		// the prover's, linear in the tests named.
		return s.marshal(map[string]any{"tests": s.tests(ep, 1+s.one(ep+":tests", 3))})
	case "predict":
		// Either an open's float prediction or one or two catalog
		// shorts/bridges at a drawn resistance: a netlist build plus
		// the static net prover, the cheapest miss.
		if s.one(ep+":kind", 3) == 0 {
			return s.marshal(map[string]any{"open": 1 + s.one(ep+":open", 9)})
		}
		return s.marshal(map[string]any{"defects": s.defects(1 + s.one(ep+":defects", 2))})
	case "stress":
		// Nominal plus one built-in corner, one open on a 2×2 grid and
		// one test on a 2×2 array, analytical engine: two small corner
		// pipelines with coverage and a certificate.
		return s.marshal(map[string]any{"corners": "nominal;" + corners[s.deal("corners", len(corners), 1)[0]],
			"opens": s.opens(ep, 1), "rdefs": s.pick(ep, rdefAxis, 2), "us": s.pick(ep, uAxis, 2),
			"tests": s.tests(ep, 1), "rows": 2, "cols": 2, "march_engine": s.choice(ep+":engine", "memsim", "bitsim")})
	case "batch":
		// Two or three cheap sub-requests (predict, matrix, coverage)
		// served concurrently inside one request.
		var items []map[string]any
		for n := 2 + s.one(ep+":items", 2); len(items) < n; {
			kind := s.choice(ep+":kind", "predict", "matrix", "coverage")
			items = append(items, map[string]any{"kind": kind, "body": json.RawMessage(s.body(kind))})
		}
		return s.marshal(map[string]any{"requests": items})
	}
	panic("perfbench: unknown endpoint " + ep)
}

// Grid axes for inventory and stress bodies: R_def every 0.025 decade
// from 10 kΩ to 100 MΩ, U every 0.1 V from 0 to 4.6 V.
var (
	rdefAxis = numeric.Logspace(1e4, 1e8, 161)
	uAxis    = numeric.Linspace(0, 4.6, 47)
	corners  = []string{"low-vdd", "high-vdd", "weak-precharge", "hot", "cold"}
)

// one deals a single index below k from the named deck.
func (s *stream) one(deck string, k int) int { return s.deal(deck, k, 1)[0] }

func (s *stream) choice(deck string, opts ...string) string { return opts[s.one(deck, len(opts))] }

// pick deals n distinct values from axis, in axis order.
func (s *stream) pick(deck string, axis []float64, n int) []float64 {
	idx := s.deal(fmt.Sprintf("axis%d:%s", len(axis), deck), len(axis), n)
	sort.Ints(idx)
	out := make([]float64, n)
	for i, j := range idx {
		out[i] = axis[j]
	}
	return out
}

// deal returns n distinct indices below size from the named deck: a
// seeded shuffle of 0..size-1 that is dealt out in order and reshuffled
// when spent. Dealing instead of drawing gives every open, test and
// corner its share of a run's bodies, whatever the seed.
func (s *stream) deal(deck string, size, n int) []int {
	var out []int
	for len(out) < n {
		if len(s.decks[deck]) == 0 {
			s.decks[deck] = s.rng.Perm(size)
		}
		i := s.decks[deck][0]
		s.decks[deck] = s.decks[deck][1:]
		if !slices.Contains(out, i) {
			out = append(out, i)
		}
	}
	return out
}

func (s *stream) opens(deck string, n int) []int {
	all := defect.SimulatedOpens()
	var ids []int
	for _, j := range s.deal("opens:"+deck, len(all), n) {
		ids = append(ids, all[j].ID)
	}
	sort.Ints(ids)
	return ids
}

func (s *stream) tests(deck string, n int) []string {
	all := march.All()
	var names []string
	for _, j := range s.deal("tests:"+deck, len(all), n) {
		names = append(names, all[j].Name)
	}
	return names
}

// offsets deals one of the 16 subsets of {-2, -1, 1, 2}.
func (s *stream) offsets() []int {
	mask := s.one("offsets", 16)
	var out []int
	for i, d := range []int{-2, -1, 1, 2} {
		if mask&(1<<i) != 0 {
			out = append(out, d)
		}
	}
	return out
}

func (s *stream) defects(n int) []map[string]any {
	all := defect.ShortsAndBridges()
	var out []map[string]any
	for _, j := range s.deal("defects", len(all), n) {
		d := map[string]any{"site": all[j].Site}
		if s.one("ohms", 2) == 0 {
			// Three significant digits between 1 kΩ and 10 MΩ.
			ohms, _ := strconv.ParseFloat(fmt.Sprintf("%.3g", 1e3*math.Pow(10, 4*s.rng.Float64())), 64)
			d["ohms"] = ohms
		}
		out = append(out, d)
	}
	return out
}

func (s *stream) marshal(v any) string {
	buf, err := json.Marshal(v) // maps of plain values always marshal
	if err != nil {
		panic(err)
	}
	return string(buf)
}
