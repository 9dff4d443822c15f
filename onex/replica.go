package onex

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/mmapdata"
	"repro/internal/store"
)

// ErrReadOnlyReplica is returned by AddSeries on a follower DB opened with
// OpenReplica: replicas mutate only through the leader's WAL stream
// (ApplyReplicated), never through direct writes.
var ErrReadOnlyReplica = errors.New("onex: read-only replica (write to the leader)")

// OpenReplica builds a read-only follower DB from a leader snapshot image
// (the bytes served by the leader's replication snapshot endpoint — the
// same format FileStore persists). The snapshot carries the full resolved
// configuration, so the follower reconstructs the leader's state
// bit-identically: at equal applied version, both answer Find, Analyze,
// and Stream from the same dataset, the same base, and the same engine
// configuration, and decoding it builds no base, so cfg.Workers (build
// parallelism) has no effect. cfg.Store must be nil — replicas do not
// persist locally, they re-bootstrap from the leader.
//
// The returned DB refuses AddSeries with ErrReadOnlyReplica; the leader's
// WAL records are applied in sequence with ApplyReplicated.
func OpenReplica(snapshot []byte, cfg Config) (*DB, error) {
	if cfg.Store != nil {
		return nil, errors.New("onex: OpenReplica: cfg.Store must be nil (replicas re-bootstrap from the leader)")
	}
	st, err := store.DecodeSnapshot(snapshot)
	if err != nil {
		return nil, fmt.Errorf("onex: OpenReplica: %w", err)
	}
	db, err := openFromState(st, cfg, "OpenReplica")
	if err != nil {
		return nil, err
	}
	db.replica = true
	return db, nil
}

// OpenReplicaFile is OpenReplica reading the snapshot image from a file
// instead of a byte slice. With cfg.MmapValues the file is memory-mapped
// and the follower serves zero-copy views over it — a follower of a
// beyond-RAM leader never materializes the shipped dataset (the replica
// bootstrap path spools the leader's snapshot to disk and opens it this
// way). Without MmapValues the file is read and decoded eagerly,
// equivalent to OpenReplica(os.ReadFile(path)).
//
// An mmap-backed replica must be Closed when it is discarded (e.g. on
// re-bootstrap) to release the mapping; see Config.MmapValues.
func OpenReplicaFile(path string, cfg Config) (*DB, error) {
	if cfg.Store != nil {
		return nil, errors.New("onex: OpenReplicaFile: cfg.Store must be nil (replicas re-bootstrap from the leader)")
	}
	if !cfg.MmapValues {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("onex: OpenReplicaFile: %w", err)
		}
		return OpenReplica(blob, cfg)
	}
	st, err := mmapdata.OpenState(path)
	if err != nil {
		return nil, fmt.Errorf("onex: OpenReplicaFile: %w", err)
	}
	db, err := openFromState(st, cfg, "OpenReplicaFile")
	if err != nil {
		releaseStateSource(st)
		return nil, err
	}
	db.replica = true
	return db, nil
}

// IsReplica reports whether this DB is a read-only follower (OpenReplica).
func (db *DB) IsReplica() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.replica
}

// ApplyReplicated applies one leader WAL record to a follower DB. seq must
// be exactly Version()+1 — the same contiguity rule recovery replay
// enforces — so a follower can never silently skip or reorder leader
// mutations; out-of-sequence records are an error and the caller should
// re-bootstrap from a fresh snapshot. The mutation runs under the write
// lock and bumps Version, giving the follower the same
// version-observability contract as the leader (a query that observes
// version v sees every record up to v).
func (db *DB) ApplyReplicated(seq uint64, name string, values []float64) error {
	if name == "" {
		return errors.New("onex: ApplyReplicated: name required")
	}
	if len(values) == 0 {
		return errors.New("onex: ApplyReplicated: no values")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.replica {
		return errors.New("onex: ApplyReplicated: not a replica (use AddSeries)")
	}
	if err := db.checkValuesLocked(); err != nil {
		return err
	}
	if ver := db.version.Load(); seq != ver+1 {
		return fmt.Errorf("onex: ApplyReplicated: record seq %d does not follow version %d (lost records; re-bootstrap)", seq, ver)
	}
	if err := db.applySeriesLocked(name, values); err != nil {
		return fmt.Errorf("onex: ApplyReplicated: seq %d (%q): %w", seq, name, err)
	}
	db.version.Add(1)
	return nil
}

// ReplicationSource exposes the attached engine's replication view — the
// snapshot blob plus the seq-addressed WAL tail — when the engine supports
// it (FileStore does). The serving layer's leader endpoints stream from
// this. ok is false for in-memory DBs, replicas, and engines without
// replication support.
func (db *DB) ReplicationSource() (store.ReplicationSource, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	src, ok := db.store.(store.ReplicationSource)
	return src, ok && db.store != nil
}
