package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

func TestKeyDigestSensitivity(t *testing.T) {
	base := Key{Model: "behav:abc", Catalog: "cat:def", Kind: "inventory", Spec: "grid=5x4"}
	variants := []Key{
		{Model: "spice:abc", Catalog: "cat:def", Kind: "inventory", Spec: "grid=5x4"},
		{Model: "behav:abc", Catalog: "cat:OTHER", Kind: "inventory", Spec: "grid=5x4"},
		{Model: "behav:abc", Catalog: "cat:def", Kind: "coverage", Spec: "grid=5x4"},
		{Model: "behav:abc", Catalog: "cat:def", Kind: "inventory", Spec: "grid=5x5"},
	}
	seen := map[string]Key{base.Digest(): base}
	for _, v := range variants {
		d := v.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision between %+v and %+v", prev, v)
		}
		seen[d] = v
	}
	if base.Digest() != base.Digest() {
		t.Fatal("digest is not deterministic")
	}
}

func TestKeyDigestNoFieldAliasing(t *testing.T) {
	// Length-prefixed hashing: moving a boundary between adjacent
	// fields must change the digest.
	a := Key{Model: "ab", Catalog: "c", Kind: "k", Spec: "s"}
	b := Key{Model: "a", Catalog: "bc", Kind: "k", Spec: "s"}
	if a.Digest() == b.Digest() {
		t.Fatal("adjacent fields alias in the digest")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Model: "behav:abc", Catalog: "cat:def", Kind: "inventory", Spec: "grid"}
	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	type payload struct {
		Rows []string `json:"rows"`
		N    int      `json:"n"`
	}
	want := payload{Rows: []string{"CFds", "TF0"}, N: 2}
	if err := s.PutValue(k, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	ok, err := s.GetInto(k, &got)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if got.N != want.N || len(got.Rows) != 2 || got.Rows[0] != "CFds" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1/1/1", st)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("len = %d, %v", n, err)
	}
}

// TestStoreInvalidation is the store-level half of the acceptance
// criterion: changing any model input — netlist/technology (model
// fingerprint), defect catalog, or sweep spec — must miss, never serve
// the old entry.
func TestStoreInvalidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Model: "spice:netlistA", Catalog: "cat:v1", Kind: "inventory", Spec: "grid=5x4"}
	if err := s.Put(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	for name, changed := range map[string]Key{
		"technology/netlist": {Model: "spice:netlistB", Catalog: k.Catalog, Kind: k.Kind, Spec: k.Spec},
		"model kind":         {Model: "behav:netlistA", Catalog: k.Catalog, Kind: k.Kind, Spec: k.Spec},
		"catalog":            {Model: k.Model, Catalog: "cat:v2", Kind: k.Kind, Spec: k.Spec},
		"spec":               {Model: k.Model, Catalog: k.Catalog, Kind: k.Kind, Spec: "grid=9x9"},
	} {
		if _, ok, err := s.Get(changed); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else if ok {
			t.Fatalf("%s change still served the stale entry", name)
		}
	}
	if _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("original key no longer hits: ok=%v err=%v", ok, err)
	}
}

func TestStoreDetectsTamperedEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Model: "m", Catalog: "c", Kind: "k", Spec: "s"}
	if err := s.Put(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// Overwrite the entry with an envelope claiming a different key —
	// simulating corruption or a digest collision.
	other := Key{Model: "m2", Catalog: "c", Kind: "k", Spec: "s"}
	env := fmt.Sprintf(`{"key":{"model":%q,"catalog":"c","kind":"k","spec":"s"},"payload":{"v":2}}`, other.Model)
	if err := os.WriteFile(filepath.Join(dir, k.Digest()+".json"), []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(k); err == nil {
		t.Fatal("mismatched embedded key was not detected")
	}
	// Truly corrupt bytes are an error too, not a silent miss.
	if err := os.WriteFile(filepath.Join(dir, k.Digest()+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(k); err == nil {
		t.Fatal("corrupt entry was not detected")
	}
}

func TestStoreRejectsInvalidJSONPayload(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{Kind: "k"}, []byte("not json")); err == nil {
		t.Fatal("invalid payload accepted")
	}
}

// TestStoreConcurrent hammers one store with mixed readers and writers
// across overlapping keys; run with -race this doubles as the data-race
// check, and the atomic-rename write path guarantees no reader ever
// sees a torn entry.
func TestStoreConcurrent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys, rounds = 8, 5, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := Key{Model: "m", Kind: "k", Spec: fmt.Sprintf("spec-%d", (w+r)%keys)}
				if w%2 == 0 {
					if err := s.Put(k, []byte(fmt.Sprintf(`{"w":%d,"r":%d}`, w, r))); err != nil {
						errs <- err
						return
					}
				}
				if buf, ok, err := s.Get(k); err != nil {
					errs <- err
					return
				} else if ok && len(buf) == 0 {
					errs <- fmt.Errorf("empty payload for present key")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := s.Len(); err != nil || n != keys {
		t.Fatalf("len = %d, %v; want %d", n, err, keys)
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Model: "m", Kind: "k", Spec: "s"}
	if err := s1.Put(k, []byte(`{"v":42}`)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	buf, ok, err := s2.Get(k)
	if err != nil || !ok {
		t.Fatalf("reopened store: ok=%v err=%v", ok, err)
	}
	if string(buf) != `{"v":42}` {
		t.Fatalf("payload = %s", buf)
	}
}

func firstOpenWithFloat(t *testing.T) (defect.Open, defect.FloatGroup) {
	t.Helper()
	for _, open := range defect.SimulatedOpens() {
		if len(open.Floats) > 0 {
			return open, open.Floats[0]
		}
	}
	t.Fatal("no simulated open with a floating group")
	return defect.Open{}, defect.FloatGroup{}
}

// TestOutcomeLogRoundTrip proves restart persistence at the outcome
// level: run a real (tiny) sweep journaling into the log, reopen the
// log into a fresh memo, and require the second sweep to be served
// entirely from replayed entries — zero misses — with a bit-identical
// plane.
func TestOutcomeLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jsonl")
	params := behav.DefaultParams()
	factory := behav.NewFactory(params)
	model := behav.Fingerprint(params)
	open, group := firstOpenWithFloat(t)
	cfg := analysis.SweepConfig{
		Factory: factory,
		Open:    open,
		Float:   group,
		SOS:     fp.NewSOS(fp.Init1, fp.R(1)),
		RDefs:   []float64{1e5, 1e7},
		Us:      []float64{0, 2.0},
		Model:   model,
	}

	memo1 := analysis.NewMemo()
	log1, err := OpenOutcomeLog(path, memo1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Memo = memo1
	fresh, err := analysis.SweepPlane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	memo2 := analysis.NewMemo()
	log2, err := OpenOutcomeLog(path, memo2)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if replayed, skipped := log2.Replayed(); replayed != memo1.Len() || skipped != 0 {
		t.Fatalf("replayed %d (skipped %d), want %d", replayed, skipped, memo1.Len())
	}
	cfg.Memo = memo2
	replayedPlane, err := analysis.SweepPlane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := memo2.Snapshot(); st.Misses != 0 {
		t.Fatalf("replayed sweep missed the warmed memo %d times", st.Misses)
	}
	for i := range fresh.Points {
		for j := range fresh.Points[i] {
			a, b := fresh.Points[i][j], replayedPlane.Points[i][j]
			if a.Faulty != b.Faulty || a.FFM != b.FFM || a.FP.String() != b.FP.String() {
				t.Fatalf("point (%d,%d) differs after replay: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

// TestOutcomeLogModelInvalidation: a log written under one model
// fingerprint must not serve a differently-fingerprinted sweep — the
// OutcomeKey regression scenario, at the persistence layer.
func TestOutcomeLogModelInvalidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jsonl")
	params := behav.DefaultParams()
	open, group := firstOpenWithFloat(t)
	cfg := analysis.SweepConfig{
		Factory: behav.NewFactory(params),
		Open:    open,
		Float:   group,
		SOS:     fp.NewSOS(fp.Init1, fp.R(1)),
		RDefs:   []float64{1e5, 1e7},
		Us:      []float64{0, 2.0},
		Model:   behav.Fingerprint(params),
	}
	memo1 := analysis.NewMemo()
	log1, err := OpenOutcomeLog(path, memo1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Memo = memo1
	if _, err := analysis.SweepPlane(cfg); err != nil {
		t.Fatal(err)
	}
	log1.Close()

	// Same grid, but the technology changed: new fingerprint.
	changed := params
	changed.Tech.VDD *= 1.1
	memo2 := analysis.NewMemo()
	log2, err := OpenOutcomeLog(path, memo2)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	cfg.Factory = behav.NewFactory(changed)
	cfg.Model = behav.Fingerprint(changed)
	cfg.Memo = memo2
	if _, err := analysis.SweepPlane(cfg); err != nil {
		t.Fatal(err)
	}
	if st := memo2.Snapshot(); st.Hits != 0 {
		t.Fatalf("changed-technology sweep hit %d stale replayed outcomes", st.Hits)
	}
}

// TestOutcomeLogTornTail: a crash mid-append leaves a torn last line;
// reopening must skip it and keep every complete record.
func TestOutcomeLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jsonl")
	memo := analysis.NewMemo()
	l, err := OpenOutcomeLog(path, memo)
	if err != nil {
		t.Fatal(err)
	}
	open, _ := firstOpenWithFloat(t)
	k := analysis.NewOutcomeKey("behav:x", open, 1e5, []string{"BT"}, 1.0, fp.NewSOS(fp.Init1, fp.R(1)))
	memo.Store(k, analysis.Outcome{F: 1, R: fp.ReadResultOf(1)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":{"Model":"behav:x","OpenID":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	memo2 := analysis.NewMemo()
	l2, err := OpenOutcomeLog(path, memo2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	replayed, skipped := l2.Replayed()
	if replayed != 1 || skipped != 1 {
		t.Fatalf("replayed=%d skipped=%d, want 1/1", replayed, skipped)
	}
	if out, ok := memo2.Lookup(k); !ok || out.F != 1 {
		t.Fatalf("complete record lost: ok=%v out=%+v", ok, out)
	}
}

// failingWriter rejects every write, like a full or yanked disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestOutcomeLogCountsWriteErrors: a journal append that fails must be
// counted, and the outcome must still be served from the memo.
func TestOutcomeLogCountsWriteErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jsonl")
	memo := analysis.NewMemo()
	l, err := OpenOutcomeLog(path, memo)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	open, _ := firstOpenWithFloat(t)
	sos := fp.NewSOS(fp.Init1, fp.R(1))
	k1 := analysis.NewOutcomeKey("behav:x", open, 1e5, []string{"BT"}, 1.0, sos)
	k2 := analysis.NewOutcomeKey("behav:x", open, 1e5, []string{"BT"}, 2.0, sos)

	l.enc = json.NewEncoder(failingWriter{})
	memo.Store(k1, analysis.Outcome{F: 1, R: fp.R1})
	memo.Store(k2, analysis.Outcome{F: 0, R: fp.R0})
	memo.Store(k1, analysis.Outcome{F: 1, R: fp.R1}) // not new: no append
	if got := l.WriteErrors(); got != 2 {
		t.Fatalf("WriteErrors = %d, want 2", got)
	}
	if out, ok := memo.Lookup(k1); !ok || out != (analysis.Outcome{F: 1, R: fp.R1}) {
		t.Fatalf("outcome not served after a failed append: ok=%v out=%+v", ok, out)
	}
}

// TestOutcomeLogSkipsOutOfRangeOutcomes: a record whose outcome no
// simulation can produce is skipped and counted at replay, not loaded.
func TestOutcomeLogSkipsOutOfRangeOutcomes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jsonl")
	open, _ := firstOpenWithFloat(t)
	k := analysis.NewOutcomeKey("behav:x", open, 1e5, []string{"BT"}, 1.0, fp.NewSOS(fp.Init1, fp.R(1)))
	var lines []byte
	for _, out := range []analysis.Outcome{{F: 1, R: fp.R1}, {F: 7}, {F: 0, R: fp.ReadResult(9)}} {
		b, err := json.Marshal(logRecord{Key: k, Outcome: out})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, b...), '\n')
	}
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	memo := analysis.NewMemo()
	l, err := OpenOutcomeLog(path, memo)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if replayed, skipped := l.Replayed(); replayed != 1 || skipped != 2 {
		t.Fatalf("replayed=%d skipped=%d, want 1/2", replayed, skipped)
	}
	if out, ok := memo.Lookup(k); !ok || out != (analysis.Outcome{F: 1, R: fp.R1}) {
		t.Fatalf("valid record not served: ok=%v out=%+v", ok, out)
	}
}
