package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"github.com/memtest/partialfaults/internal/analysis"
)

// OutcomeLog persists Memo entries as an append-only JSONL file, making
// the point-level outcome cache survive restarts. Every record embeds
// the full OutcomeKey — including the model fingerprint — so a log
// written under one netlist/technology can never seed outcomes for
// another: on replay the entries land under their original keys, and a
// changed model simply never looks those keys up.
type OutcomeLog struct {
	mu   sync.Mutex
	f    *os.File
	enc  *json.Encoder
	memo *analysis.Memo

	replayed, skipped int
	// writeErrors counts journal appends that failed to reach the file.
	writeErrors uint64
}

// logRecord is the JSONL line schema.
type logRecord struct {
	Key     analysis.OutcomeKey `json:"key"`
	Outcome analysis.Outcome    `json:"outcome"`
}

// OpenOutcomeLog replays the log at path into the memo (via Preload, so
// seeding neither journals nor skews hit counters) and then attaches
// itself as the memo's write-through journal: every outcome the memo
// newly records is appended to the log. A torn final line — a crash
// mid-append — is skipped, not fatal; fully corrupt interior lines, and
// lines whose outcome no simulation can produce, are skipped and counted
// too.
func OpenOutcomeLog(path string, memo *analysis.Memo) (*OutcomeLog, error) {
	l := &OutcomeLog{memo: memo}
	if existing, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(existing)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec logRecord
			if err := json.Unmarshal(line, &rec); err != nil || !rec.Outcome.Valid() {
				l.skipped++
				continue
			}
			memo.Preload(rec.Key, rec.Outcome)
			l.replayed++
		}
		scanErr := sc.Err()
		existing.Close()
		if scanErr != nil {
			return nil, fmt.Errorf("store: replay outcome log %s: %w", path, scanErr)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: open outcome log: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open outcome log: %w", err)
	}
	l.f = f
	l.enc = json.NewEncoder(f)
	memo.Journal(l.append)
	return l, nil
}

// append is the Memo journal hook. It runs under the memo lock, so the
// log's line order is the memo's store order; the write itself is one
// buffered encode + O_APPEND write, cheap next to a simulation.
func (l *OutcomeLog) append(k analysis.OutcomeKey, out analysis.Outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return
	}
	// An append error must not fail the simulation that produced the
	// outcome — the memo entry is already live; the log just loses
	// persistence for this record, and the loss is counted.
	if err := l.enc.Encode(logRecord{Key: k, Outcome: out}); err != nil {
		l.writeErrors++
	}
}

// WriteErrors reports how many journal appends failed since open: each
// is an outcome that is served from the memo but will not survive a
// restart.
func (l *OutcomeLog) WriteErrors() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeErrors
}

// Replayed reports how many records seeded the memo at open, and how
// many corrupt lines were skipped.
func (l *OutcomeLog) Replayed() (replayed, skipped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replayed, l.skipped
}

// Close detaches the journal hook and closes the file. The memo keeps
// working; new outcomes simply stop persisting.
func (l *OutcomeLog) Close() error {
	l.memo.Journal(nil)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
