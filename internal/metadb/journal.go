// Journal-backed persistence: every mutation is written through the
// write-ahead log of internal/wal before it touches the in-memory
// tables, so the broker's meta-data survives a crash at any instant
// with no acknowledged row lost and no partial row visible.  Recovery
// is snapshot + replay: OpenJournal loads the newest checkpoint and
// re-applies the records appended after it, in order.
package metadb

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// ErrClosed is returned by every mutator of a database whose journal
// has been closed: the mutation is neither journaled nor applied.  It
// wraps storage.ErrClosed.
var ErrClosed = fmt.Errorf("metadb: journal closed: %w", storage.ErrClosed)

// Journal record types.  Payloads are JSON, one mutation per record,
// matching the mutator that produced them.
const (
	recPutRun         byte = 1
	recPutDataset     byte = 2
	recAddSample      byte = 3
	recReplaceSamples byte = 4
	recSetConstant    byte = 5
	recPutLifecycle   byte = 6
	recDelLifecycle   byte = 7
)

// lifecycleKey is the journal encoding of one DeleteLifecycle call.
type lifecycleKey struct {
	Pool string `json:"pool"`
	Path string `json:"path"`
}

// replacePayload is the journal encoding of one ReplaceSamples call:
// the whole-curve swap must replay as a unit or the calibration
// write-back could leave a blended stale/fresh curve after recovery.
type replacePayload struct {
	Resource string       `json:"resource"`
	Op       string       `json:"op"`
	Samples  []PerfSample `json:"samples"`
}

// OpenJournal opens a database persisted through a write-ahead journal
// in opts.Dir, replaying any existing snapshot and log.  Every
// subsequent mutation is appended and fsynced before it is applied, so
// a mutator returning nil means the row is crash-durable.
func OpenJournal(opts wal.Options) (*DB, error) {
	l, rec, err := wal.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("metadb journal: %w", err)
	}
	db := New()
	if rec.Snapshot != nil {
		var snap snapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			l.Close()
			return nil, fmt.Errorf("metadb journal: %w: snapshot: %v", wal.ErrCorrupt, err)
		}
		db.install(snap)
	}
	for i, r := range rec.Records {
		if err := db.apply(r); err != nil {
			l.Close()
			return nil, fmt.Errorf("metadb journal: %w: record %d: %v", wal.ErrCorrupt, i, err)
		}
	}
	db.log = l
	return db, nil
}

// Journaled reports whether mutations are being written through a
// journal.
func (db *DB) Journaled() bool {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.log != nil
}

// JournalStats returns the journal's counters; ok is false when the
// database is not journal-backed.
func (db *DB) JournalStats() (st wal.Stats, ok bool) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.log == nil {
		return wal.Stats{}, false
	}
	return db.log.Stats(), true
}

// Collect implements metrics.Collector: the journal counters as the
// msra_wal_* families — append/fsync/rotation/compaction counters,
// replay cost, torn-tail bytes and the last checkpoint timestamp.  A
// database without a journal reports no families.
func (db *DB) Collect() ([]metrics.Family, error) {
	st, ok := db.JournalStats()
	if !ok {
		return nil, nil
	}
	var checkpoint int64
	if !st.LastCheckpoint.IsZero() {
		checkpoint = st.LastCheckpoint.Unix()
	}
	return []metrics.Family{
		metrics.Counter("msra_wal_appends_total", "Journal records appended.", metrics.Int(st.Appends)),
		metrics.Counter("msra_wal_append_bytes_total", "Journal frame bytes appended.", metrics.Int(st.AppendBytes)),
		metrics.Counter("msra_wal_fsyncs_total", "Fsync barriers issued on journal segments.", metrics.Int(st.Syncs)),
		metrics.Counter("msra_wal_rotations_total", "Segment rotations.", metrics.Int(st.Rotations)),
		metrics.Counter("msra_wal_compactions_total", "Snapshot+truncate compactions.", metrics.Int(st.Compactions)),
		metrics.Gauge("msra_wal_segments", "Live journal segment files.", metrics.Int(st.Segments)),
		metrics.Gauge("msra_wal_replay_records", "Records replayed when the journal was opened.", metrics.Int(st.ReplayRecords)),
		metrics.Gauge("msra_wal_replay_seconds", "Wall time recovery spent replaying the journal.", metrics.Float(st.ReplayDuration.Seconds())),
		metrics.Gauge("msra_wal_torn_tail_bytes", "Bytes dropped from the final segment's torn tail at recovery.", metrics.Int(st.TornTailBytes)),
		metrics.Gauge("msra_wal_last_checkpoint_timestamp_seconds", "Unix time of the last checkpoint (0 = none this process).", metrics.Int(checkpoint)),
	}, nil
}

// Checkpoint compacts the journal: the current tables become the
// snapshot baseline and the records they summarize are removed.  The
// writer lock is held across the snapshot and the compaction, so the
// snapshot covers exactly the journaled history; the tables are only
// read-locked while they are copied, so readers keep running.  No-op
// without a journal.
func (db *DB) Checkpoint() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.log == nil {
		return nil
	}
	db.mu.RLock()
	snap := db.snapshotLocked()
	db.mu.RUnlock()
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("metadb checkpoint: %w", err)
	}
	return db.log.Compact(data)
}

// CloseJournal syncs and closes the journal.  Mutations after this
// fail with ErrClosed; reads keep working.  It waits for an in-flight
// commit to finish.  No-op without a journal.
func (db *DB) CloseJournal() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.log == nil {
		return nil
	}
	err := db.log.Close()
	db.log, db.closed = nil, true
	return err
}

// mutate is the path of every mutator but DeleteLifecycle: through the
// replicator when one is installed, otherwise journaled and applied by
// commitLocked.
func (db *DB) mutate(p *vtime.Proc, typ byte, v any, apply func()) error {
	if ok, err := db.replicate(p, typ, v); ok {
		return err
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.commitLocked(typ, v, apply)
}

// commitLocked journals one mutation, waits for the fsync barrier and
// only then applies it under the table lock.  Caller holds db.wmu, so
// journal order equals apply order.  A failed commit is not applied.
func (db *DB) commitLocked(typ byte, v any, apply func()) error {
	var data []byte
	if db.log != nil {
		var err error
		if data, err = json.Marshal(v); err != nil {
			return fmt.Errorf("metadb journal: %w", err)
		}
	}
	if err := db.journalRawLocked(typ, data); err != nil {
		return err
	}
	db.mu.Lock()
	apply()
	db.mu.Unlock()
	return nil
}

// journalRawLocked appends one pre-marshalled record and waits for the
// fsync barrier.  Caller holds db.wmu.  Without a journal it is free;
// after CloseJournal it fails with ErrClosed.
func (db *DB) journalRawLocked(typ byte, data []byte) error {
	if db.log == nil {
		if db.closed {
			return ErrClosed
		}
		return nil
	}
	if err := db.log.Append(typ, data); err != nil {
		return err
	}
	return db.log.Sync()
}

// Replicator routes mutations through a cluster replicated log.  When
// one is installed every mutator hands its journal record to
// Replicate INSTEAD of journaling and applying it locally; the log
// layer feeds the committed record back to every replica — this
// database included — through ApplyRecord.  Replicate returning nil
// therefore means the mutation is durable on a quorum and applied
// locally, the same ack contract a journaled mutator gives.
type Replicator interface {
	Replicate(p *vtime.Proc, typ byte, data []byte) error
}

// SetReplicator installs (or, with nil, removes) the cluster
// replicator.  The mutator that triggers replication holds no
// database lock while Replicate runs, so the replicator is free to
// call ApplyRecord on any replica, including this one.
func (db *DB) SetReplicator(r Replicator) {
	db.mu.Lock()
	db.repl = r
	db.mu.Unlock()
}

// replicator returns the installed replicator, if any.
func (db *DB) replicator() Replicator {
	db.mu.RLock()
	r := db.repl
	db.mu.RUnlock()
	return r
}

// replicate consumes one mutation when a replicator is installed.
// handled=false means no replicator: the caller journals and applies
// locally as usual.  handled=true means the record was offered to the
// replicated log; on nil error it has been committed and applied back
// to these tables via ApplyRecord, so the caller must not touch them.
func (db *DB) replicate(p *vtime.Proc, typ byte, v any) (handled bool, err error) {
	rep := db.replicator()
	if rep == nil {
		return false, nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return true, fmt.Errorf("metadb journal: %w", err)
	}
	return true, rep.Replicate(p, typ, data)
}

// ApplyRecord applies one committed replicated record: the follower
// half of cluster replication.  The record is journaled locally (when
// a journal is open) and then applied through the same switch crash
// recovery replays, so a replica's tables and journal stay exactly as
// if the mutation had happened here.  The replicator hook is not
// consulted — the record has already been through the leader's log.
func (db *DB) ApplyRecord(typ byte, data []byte) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.journalRawLocked(typ, data); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.apply(wal.Record{Type: typ, Data: data})
}

// install replaces the tables from a decoded snapshot and drops every
// memoized curve.  Caller holds both locks, or the database is not yet
// shared (recovery).
func (db *DB) install(snap snapshot) {
	db.runs = make(map[string]Run, len(snap.Runs))
	for _, r := range snap.Runs {
		db.runs[r.ID] = r
	}
	db.datasets = make(map[string]Dataset, len(snap.Datasets))
	for _, d := range snap.Datasets {
		db.datasets[dsKey(d.RunID, d.Name)] = d
	}
	db.lifecycles = make(map[string]Lifecycle, len(snap.Lifecycles))
	for _, l := range snap.Lifecycles {
		db.lifecycles[lcKey(l.Pool, l.Path)] = l
	}
	db.samples = snap.Samples
	db.constants = snap.Constants
	db.curves = nil
}

// apply replays one journal record against the tables: recovery, and
// replicated records through ApplyRecord (which holds db.mu).
func (db *DB) apply(r wal.Record) error {
	switch r.Type {
	case recPutRun:
		var row Run
		if err := json.Unmarshal(r.Data, &row); err != nil {
			return err
		}
		db.runs[row.ID] = row
	case recPutDataset:
		var row Dataset
		if err := json.Unmarshal(r.Data, &row); err != nil {
			return err
		}
		db.datasets[dsKey(row.RunID, row.Name)] = row
	case recAddSample:
		var s PerfSample
		if err := json.Unmarshal(r.Data, &s); err != nil {
			return err
		}
		db.addSampleLocked(s)
	case recReplaceSamples:
		var p replacePayload
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return err
		}
		db.replaceSamplesLocked(p.Resource, p.Op, p.Samples)
	case recSetConstant:
		var c PerfConstant
		if err := json.Unmarshal(r.Data, &c); err != nil {
			return err
		}
		db.setConstantLocked(c)
	case recPutLifecycle:
		var l Lifecycle
		if err := json.Unmarshal(r.Data, &l); err != nil {
			return err
		}
		db.lifecycles[lcKey(l.Pool, l.Path)] = l
	case recDelLifecycle:
		var k lifecycleKey
		if err := json.Unmarshal(r.Data, &k); err != nil {
			return err
		}
		delete(db.lifecycles, lcKey(k.Pool, k.Path))
	default:
		return fmt.Errorf("unknown record type %d", r.Type)
	}
	return nil
}
