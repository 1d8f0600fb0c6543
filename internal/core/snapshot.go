package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/embedding"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// Sparse-shard snapshot/rebuild: the fault-tolerance counterpart of
// online resharding. A replacement replica (fresh process, empty table
// store) rebuilds its entire table set from any healthy peer of the same
// shard — sparse-shard storage is immutable (Section III-A1), so every
// replica's copy is byte-identical and any of them can seed a rebuild.
// Rows move with the migrator's copy loop (sparse.read from the peer,
// landing in the shard's own staging): fp16/int8 cold tiers travel as
// verbatim encoded bytes, fp32 as float payloads, and the rebuilt tables
// are bit-identical to the peer's. They install through the same commit
// as a migration, so they rejoin the rotation cold-cached — nothing of
// the peer's hot-row cache leaks into the replacement.
const MethodSnapshotList = "sparse.snapshot.list"

// SnapshotEntry describes one table (or row-partition) a shard holds:
// enough for a peer to allocate matching staging and size the stream.
type SnapshotEntry struct {
	TableID   int32
	PartIndex int32
	Rows      int32
	Dim       int32
	Enc       int32
}

// SnapshotList is the shard's table-set manifest, in deterministic
// (TableID, PartIndex) order.
type SnapshotList struct {
	Entries []SnapshotEntry
}

// EncodeSnapshotList serializes a table-set manifest.
func EncodeSnapshotList(l *SnapshotList) []byte {
	var w buffer
	w.u32(uint32(len(l.Entries)))
	for _, e := range l.Entries {
		w.u32(uint32(e.TableID))
		w.u32(uint32(e.PartIndex))
		w.u32(uint32(e.Rows))
		w.u32(uint32(e.Dim))
		w.u32(uint32(e.Enc))
	}
	return w.b
}

// DecodeSnapshotList parses a table-set manifest.
func DecodeSnapshotList(b []byte) (*SnapshotList, error) {
	r := reader{b: b}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := &SnapshotList{}
	for i := uint32(0); i < n; i++ {
		var e SnapshotEntry
		if err := decodeInt32s(&r, &e.TableID, &e.PartIndex, &e.Rows, &e.Dim, &e.Enc); err != nil {
			return nil, err
		}
		out.Entries = append(out.Entries, e)
	}
	return out, nil
}

// handleSnapshotList reports every table/part the shard currently holds,
// with shapes and cold-tier encodings: one consistent snapshot of the
// table set (table storage itself is immutable, so the references stay
// valid after the lock drops).
func (s *SparseShard) handleSnapshotList(body []byte) ([]byte, error) {
	type manifestEntry struct {
		key tableKey
		tab embedding.Table
	}
	s.mu.RLock()
	tabs := make([]manifestEntry, 0, len(s.tables))
	for key, tab := range s.tables {
		tabs = append(tabs, manifestEntry{key: key, tab: tab})
	}
	s.mu.RUnlock()
	sort.Slice(tabs, func(i, j int) bool { return tabs[i].key.less(tabs[j].key) })
	out := &SnapshotList{Entries: make([]SnapshotEntry, 0, len(tabs))}
	for _, e := range tabs {
		cold := coldOf(e.tab)
		enc, err := tableEnc(e.tab)
		if err != nil {
			return nil, fmt.Errorf("core: %s: table %d part %d: %w", s.ShardName, e.key.id, e.key.part, err)
		}
		out.Entries = append(out.Entries, SnapshotEntry{
			TableID: int32(e.key.id), PartIndex: int32(e.key.part),
			Rows: int32(cold.NumRows()), Dim: int32(cold.Dim()), Enc: enc,
		})
	}
	return EncodeSnapshotList(out), nil
}

// RebuildStats summarizes one replica rebuild.
type RebuildStats struct {
	// Tables is how many tables/parts were rebuilt.
	Tables int
	// Bytes is the row data streamed from the peer.
	Bytes int64
	// Duration covers manifest fetch through final install.
	Duration time.Duration
}

// String renders the stats for logs.
func (st RebuildStats) String() string {
	return fmt.Sprintf("rebuilt %d tables, %.1f KiB streamed, in %v",
		st.Tables, float64(st.Bytes)/1024, st.Duration.Round(time.Millisecond))
}

// RebuildFromPeer streams every table a healthy peer holds into this
// shard: fetch the manifest, stage each table in the peer's native
// encoding, and install the whole set at one epoch — the
// replacement-replica recovery path. On failure nothing is installed.
func (s *SparseShard) RebuildFromPeer(peer rpc.Caller) (RebuildStats, error) {
	start := time.Now() //lint:allow determinism rebuild wall time is operator telemetry
	var st RebuildStats
	resp, err := rpc.SyncCall(peer, &rpc.Request{Method: MethodSnapshotList, CallID: s.rec.NextID()})
	if err != nil {
		return st, fmt.Errorf("core: %s: snapshot list: %w", s.ShardName, err)
	}
	list, err := DecodeSnapshotList(resp.Body)
	if err != nil {
		return st, fmt.Errorf("core: %s: snapshot list: %w", s.ShardName, err)
	}
	if len(list.Entries) == 0 {
		return st, nil
	}
	rebuildStart := s.rec.Now()
	src := ShardEndpoint{Service: s.ShardName, Caller: peer}
	sink := &localStage{s: s}
	_, err = runStage(sink, 0, func() error {
		for _, e := range list.Entries {
			n, err := copyRows(s.rec, src, e, sink)
			st.Bytes += n
			if err != nil {
				return fmt.Errorf("core: %s: rebuild table %d part %d: %w", s.ShardName, e.TableID, e.PartIndex, err)
			}
			st.Tables++
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	s.rec.Record(trace.Span{
		Layer: trace.LayerMigration,
		Name:  fmt.Sprintf("snapshot/rebuild/%s", s.ShardName),
		Start: rebuildStart, Dur: s.rec.Now().Sub(rebuildStart),
	})
	st.Duration = time.Since(start) //lint:allow determinism rebuild wall time is operator telemetry
	return st, nil
}
