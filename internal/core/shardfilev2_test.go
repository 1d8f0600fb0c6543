package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// shardLookup runs one sparse.run lookup and returns the pooled vector —
// the bitwise fingerprint the identity tests compare across boot paths.
func shardLookup(t *testing.T, sh *SparseShard, net string, tableID, partIndex, numParts int, idx []int32) []float32 {
	t.Helper()
	req := &SparseRequest{Net: net, Entries: []SparseEntry{{
		TableID: int32(tableID), PartIndex: int32(partIndex), NumParts: int32(numParts),
		Bags: []embedding.Bag{{Indices: idx}},
	}}}
	out, err := sh.Handle(trace.Context{TraceID: 7, CallID: 1}, "sparse.run", EncodeSparseRequest(req))
	if err != nil {
		t.Fatalf("lookup table %d part %d: %v", tableID, partIndex, err)
	}
	resp, err := DecodeSparseResponse(out)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Entries[0].Data
}

// compareShards asserts two shards answer bitwise-identical lookups for
// every placement unit of the assignment.
func compareShards(t *testing.T, cfg *model.Config, a *sharding.Assignment, got, want *SparseShard) {
	t.Helper()
	for _, id := range a.Tables {
		idx := []int32{0, int32(cfg.Tables[id].Rows - 1)}
		g := shardLookup(t, got, cfg.Tables[id].Net, id, 0, 1, idx)
		w := shardLookup(t, want, cfg.Tables[id].Net, id, 0, 1, idx)
		if !bitsEqual(g, w) {
			t.Fatalf("table %d: lookup differs between boot paths", id)
		}
	}
	for _, pr := range a.Parts {
		g := shardLookup(t, got, cfg.Tables[pr.TableID].Net, pr.TableID, pr.PartIndex, pr.NumParts, []int32{0})
		w := shardLookup(t, want, cfg.Tables[pr.TableID].Net, pr.TableID, pr.PartIndex, pr.NumParts, []int32{0})
		if !bitsEqual(g, w) {
			t.Fatalf("table %d part %d: lookup differs between boot paths", pr.TableID, pr.PartIndex)
		}
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExportImportShardV2Identity proves a loaded shard file serves bitwise the
// same lookups as in-memory materialization at every cold precision,
// over both whole tables and row partitions.
func TestExportImportShardV2Identity(t *testing.T) {
	cfg := model.DRM3()
	cfg.Tables[0].Rows = 512
	for i := 1; i < len(cfg.Tables); i++ {
		cfg.Tables[i].Rows = 16
	}
	m := model.Build(cfg)
	plan, err := sharding.NSBP(&cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []sharding.Precision{sharding.PrecisionFP32, sharding.PrecisionFP16, sharding.PrecisionInt8} {
		t.Run(string(prec), func(t *testing.T) {
			tier := tierConfigFor(&cfg, prec, 0)
			recs := make([]*trace.Recorder, plan.NumShards)
			for i := range recs {
				recs[i] = trace.NewRecorder(ServiceName(i+1), 64)
			}
			want, err := MaterializeShardsTiered(m, plan, recs, tier)
			if err != nil {
				t.Fatal(err)
			}
			for shard := 1; shard <= plan.NumShards; shard++ {
				sh := exportLoad(t, m, plan, shard, tier.Plan)
				compareShards(t, &cfg, &plan.Shards[shard-1], sh, want[shard-1])
			}
		})
	}
}

// TestOpenShardFileMmap proves the zero-copy mmap boot path serves the
// same bytes as the heap load.
func TestOpenShardFileMmap(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	tier := tierConfigFor(&cfg, sharding.PrecisionInt8, 0)
	path := filepath.Join(t.TempDir(), "v2.shard1")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportShardV2(m, plan, 1, f, tier.Plan); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sh, shard, closer, err := OpenShardFile(path, trace.NewRecorder("x", 64))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if shard != 1 {
		t.Fatalf("opened shard %d, want 1", shard)
	}
	compareShards(t, &cfg, &plan.Shards[0], sh, exportLoad(t, m, plan, 1, tier.Plan))
}

// TestShardFileV2RejectsCorruption flips bytes across the file and
// checks the parser refuses each damaged image (checksums for section
// bytes, bounds checks for the directory).
func TestShardFileV2RejectsCorruption(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	tier := tierConfigFor(&cfg, sharding.PrecisionFP16, 0)
	var buf bytes.Buffer
	if err := ExportShardV2(m, plan, 1, &buf, tier.Plan); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := LoadShardFile(full); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	// Flip one byte in the last data section (past the last directory
	// entry), in the middle of the directory, and in the version field.
	for _, pos := range []int{len(full) - 1, 16 + shardDirEntrySize/2, 5} {
		bad := append([]byte(nil), full...)
		bad[pos] ^= 0xff
		if _, err := LoadShardFile(bad); err == nil {
			t.Errorf("corruption at byte %d accepted", pos)
		}
	}
	for _, cut := range []int{15, 40, shardAlign + 5, len(full) - 3} {
		if _, err := LoadShardFile(full[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestLoadShardFileVersions checks both loaders reject every version but
// 2 — a version-1 row stream included — as a malformed shard file.
func TestLoadShardFileVersions(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportShardV2(m, plan, 1, &buf, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard1")
	for _, v := range []uint32{1, 3} {
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint32(data[4:], v)
		if _, err := LoadShardFile(data); !errors.Is(err, errBadShardFile) {
			t.Errorf("LoadShardFile version %d: got %v, want errBadShardFile", v, err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, closer, err := OpenShardFile(path, trace.NewRecorder("x", 4)); !errors.Is(err, errBadShardFile) {
			if err == nil {
				closer.Close()
			}
			t.Errorf("OpenShardFile version %d: got %v, want errBadShardFile", v, err)
		}
	}
}
