package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

func TestSnapshotListRoundTrip(t *testing.T) {
	in := &SnapshotList{Entries: []SnapshotEntry{
		{TableID: 3, PartIndex: 0, Rows: 128, Dim: 16, Enc: TierEncFP32},
		{TableID: 7, PartIndex: 2, Rows: 64, Dim: 32, Enc: TierEncInt8},
	}}
	out, err := DecodeSnapshotList(EncodeSnapshotList(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != len(in.Entries) {
		t.Fatalf("entries = %d, want %d", len(out.Entries), len(in.Entries))
	}
	for i := range in.Entries {
		if out.Entries[i] != in.Entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, out.Entries[i], in.Entries[i])
		}
	}
	empty, err := DecodeSnapshotList(EncodeSnapshotList(&SnapshotList{}))
	if err != nil || len(empty.Entries) != 0 {
		t.Fatalf("empty round trip = %+v, %v", empty, err)
	}
	if _, err := DecodeSnapshotList([]byte{1, 2}); err == nil {
		t.Error("truncated manifest must not decode")
	}
}

// withChunkRows lowers the staging chunk size for one test, forcing
// multi-chunk streams.
func withChunkRows(t *testing.T, rows int) {
	t.Helper()
	prev := stageChunkRows
	stageChunkRows = rows
	t.Cleanup(func() { stageChunkRows = prev })
}

// rebuildFromShard rebuilds a fresh, empty replacement shard from peer
// (in-process caller) and returns it.
func rebuildFromShard(t *testing.T, peer *SparseShard, tier *TierConfig) (*SparseShard, RebuildStats) {
	t.Helper()
	fresh := NewSparseShard(peer.ShardName, trace.NewRecorder(peer.ShardName+"-rebuilt", 1<<14))
	if tier != nil {
		fresh.SetTier(tier)
	}
	t.Cleanup(fresh.Close)
	st, err := fresh.RebuildFromPeer(&localCaller{h: peer})
	if err != nil {
		t.Fatal(err)
	}
	return fresh, st
}

// snapshotReadAll streams a shard's full content for one manifest entry.
func snapshotReadAll(t *testing.T, sh *SparseShard, e SnapshotEntry) *ReadResponse {
	t.Helper()
	return readRows(t, sh, int(e.TableID), int(e.PartIndex), 0, e.Rows)
}

// requireShardsByteIdentical compares two shards' full table sets via
// the snapshot surface.
func requireShardsByteIdentical(t *testing.T, a, b *SparseShard) {
	t.Helper()
	am, err := a.Handle(trace.Context{}, MethodSnapshotList, nil)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := b.Handle(trace.Context{}, MethodSnapshotList, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(am, bm) {
		t.Fatalf("manifests differ:\n%x\n%x", am, bm)
	}
	list, err := DecodeSnapshotList(am)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Entries) == 0 {
		t.Fatal("empty manifest proves nothing")
	}
	for _, e := range list.Entries {
		ra, rb := snapshotReadAll(t, a, e), snapshotReadAll(t, b, e)
		if ra.Enc != rb.Enc {
			t.Fatalf("table %d part %d: enc %d vs %d", e.TableID, e.PartIndex, ra.Enc, rb.Enc)
		}
		if !bytes.Equal(float32Bits(ra.Data), float32Bits(rb.Data)) || !bytes.Equal(ra.Raw, rb.Raw) {
			t.Fatalf("table %d part %d: row data differs after rebuild", e.TableID, e.PartIndex)
		}
	}
}

func float32Bits(xs []float32) []byte {
	var w buffer
	w.f32s(xs)
	return w.b
}

// TestRebuildFromPeerFP32 rebuilds an fp32 shard and checks the
// replacement's table set is byte-identical and serves identical pooled
// results.
func TestRebuildFromPeerFP32(t *testing.T) {
	f := newMigrationFixture(t)
	src := f.shards[0]
	withChunkRows(t, 7)
	rebuilt, st := rebuildFromShard(t, src, nil)
	if st.Tables != src.NumTables() || st.Bytes == 0 {
		t.Fatalf("stats = %+v for %d tables", st, src.NumTables())
	}
	requireShardsByteIdentical(t, src, rebuilt)

	// Serving equivalence: the same sparse.run request pools to the same
	// bytes on the replacement.
	req := f.runRequest(t, 99)
	want, err := src.Handle(trace.Context{TraceID: 1, CallID: 1}, MethodSparseRun, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.Handle(trace.Context{TraceID: 2, CallID: 2}, MethodSparseRun, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("rebuilt shard pooled different bytes")
	}
}

// TestRebuildFromPeerEncodedTiers rebuilds a tiered (int8 cold tier +
// hot-row cache) shard: encoded rows must stream verbatim and the
// replacement must rejoin cold-cached.
func TestRebuildFromPeerEncodedTiers(t *testing.T) {
	f := newTieredMigrationFixture(t, sharding.PrecisionInt8, 0.25)
	src := f.shards[0]
	cfg := tinyConfig()
	withChunkRows(t, 5)
	rebuilt, _ := rebuildFromShard(t, src, tierConfigFor(&cfg, sharding.PrecisionInt8, 0.25))
	requireShardsByteIdentical(t, src, rebuilt)

	ts := rebuilt.TierSnapshot()
	if ts.Int8 != ts.Tables || ts.Tables == 0 {
		t.Fatalf("rebuilt tier snapshot = %+v, want all-int8", ts)
	}
	if ts.CacheBytes != 0 || ts.Hits != 0 {
		t.Fatalf("replacement must start cold-cached: %+v", ts)
	}

	// And it serves: identical request, identical bytes (the cache warms
	// on the way but admission never changes results).
	req := f.runRequest(t, 42)
	want, err := src.Handle(trace.Context{TraceID: 1, CallID: 1}, MethodSparseRun, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.Handle(trace.Context{TraceID: 2, CallID: 2}, MethodSparseRun, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("rebuilt tiered shard pooled different bytes")
	}
}

// TestRebuildFromPeerErrors covers the failure paths: a manifest from
// an empty peer, a peer that does not hold a requested table, and a
// stream that fails partway, which must install nothing and leave no
// staging behind.
func TestRebuildFromPeerErrors(t *testing.T) {
	empty := NewSparseShard("sparse9", trace.NewRecorder("sparse9", 1<<12))
	defer empty.Close()
	fresh := NewSparseShard("sparse9", trace.NewRecorder("sparse9b", 1<<12))
	defer fresh.Close()
	st, err := fresh.RebuildFromPeer(&localCaller{h: empty})
	if err != nil || st.Tables != 0 {
		t.Fatalf("empty-peer rebuild = %+v, %v", st, err)
	}

	// A read for a table the peer dropped mid-rebuild must surface an
	// error, not a partial install.
	if _, err := empty.Handle(trace.Context{}, MethodSparseRead, EncodeReadRequest(&ReadRequest{TableID: 3, RowCount: 4})); err == nil {
		t.Error("read of an absent table must fail")
	}

	f := newMigrationFixture(t)
	withChunkRows(t, 7)
	reads := 0
	flaky := rpc.HandlerFunc(func(ctx trace.Context, method string, body []byte) ([]byte, error) {
		if method == MethodSparseRead {
			if reads++; reads > 3 {
				return nil, fmt.Errorf("peer went away")
			}
		}
		return f.shards[0].Handle(ctx, method, body)
	})
	if _, err := fresh.RebuildFromPeer(&localCaller{h: flaky}); err == nil || !strings.Contains(err.Error(), "peer went away") {
		t.Fatalf("failed stream: %v", err)
	}
	if fresh.NumTables() != 0 || len(fresh.staging) != 0 {
		t.Fatalf("failed rebuild left %d tables, %d staging sessions", fresh.NumTables(), len(fresh.staging))
	}

	// A manifest whose last entry cannot be staged fails at that begin,
	// after earlier tables were staged; the session still goes.
	badTail := rpc.HandlerFunc(func(ctx trace.Context, method string, body []byte) ([]byte, error) {
		out, err := f.shards[0].Handle(ctx, method, body)
		if err != nil || method != MethodSnapshotList {
			return out, err
		}
		list, err := DecodeSnapshotList(out)
		if err != nil {
			return nil, err
		}
		list.Entries = append(list.Entries, SnapshotEntry{TableID: 9999})
		return EncodeSnapshotList(list), nil
	})
	if _, err := fresh.RebuildFromPeer(&localCaller{h: badTail}); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("unstageable manifest entry: %v", err)
	}
	if fresh.NumTables() != 0 || len(fresh.staging) != 0 {
		t.Fatalf("failed rebuild left %d tables, %d staging sessions", fresh.NumTables(), len(fresh.staging))
	}
}
