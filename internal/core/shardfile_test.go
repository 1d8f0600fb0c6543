package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// exportLoad exports shard `shard` of the plan and loads it back into a
// heap-backed serving shard, checking the shard number survives.
func exportLoad(t *testing.T, m *model.Model, plan *sharding.Plan, shard int, tier *sharding.TierPlan) *SparseShard {
	t.Helper()
	var buf bytes.Buffer
	if err := ExportShardV2(m, plan, shard, &buf, tier); err != nil {
		t.Fatal(err)
	}
	sf, err := LoadShardFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sf.Shard != shard {
		t.Fatalf("loaded shard %d, want %d", sf.Shard, shard)
	}
	return sf.NewShard(trace.NewRecorder("x", 64))
}

func TestExportImportShardRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for shard := 1; shard <= plan.NumShards; shard++ {
		sh := exportLoad(t, m, plan, shard, nil)
		a := &plan.Shards[shard-1]
		if sh.NumTables() != sharding.ShardTableCount(a) {
			t.Fatalf("shard %d holds %d tables, want %d", shard, sh.NumTables(), sharding.ShardTableCount(a))
		}
		// Every table answers lookups identically to the model's copy.
		for _, id := range a.Tables {
			src := m.Tables[id]
			got := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, []int32{0, int32(src.NumRows() - 1)})
			want := make([]float32, src.Dim())
			src.AccumulateRow(want, 0)
			src.AccumulateRow(want, src.NumRows()-1)
			if !bitsEqual(got, want) {
				t.Fatalf("shard %d table %d: lookup differs from the model", shard, id)
			}
		}
	}
}

func TestExportImportPartitionedShard(t *testing.T) {
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
	// Find a partition shard.
	for shard := 1; shard <= plan.NumShards; shard++ {
		a := &plan.Shards[shard-1]
		if len(a.Parts) == 0 {
			continue
		}
		sh := exportLoad(t, m, plan, shard, nil)
		pr := a.Parts[0]
		// A lookup of logical row pr.PartIndex (local row 0) must match
		// the source table's row.
		src := m.Tables[pr.TableID]
		got := shardLookup(t, sh, "net1", pr.TableID, pr.PartIndex, pr.NumParts, []int32{0})
		want := make([]float32, src.Dim())
		src.AccumulateRow(want, pr.PartIndex) // logical row of local 0
		if !bitsEqual(got, want) {
			t.Fatal("partition lookup differs from the model")
		}
		return
	}
	t.Fatal("no partition shard found")
}

// TestImportShardRejectsCorruption checks the serving boot path refuses
// a file with a bad magic or cut short anywhere, without panicking.
func TestImportShardRejectsCorruption(t *testing.T) {
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
	full := buf.Bytes()
	path := filepath.Join(t.TempDir(), "shard1")
	open := func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, closer, err := OpenShardFile(path, trace.NewRecorder("x", 4))
		if err == nil {
			closer.Close()
		}
		return err
	}

	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	if err := open(bad); !errors.Is(err, errBadShardFile) {
		t.Errorf("bad magic: got %v, want errBadShardFile", err)
	}
	for _, cut := range []int{4, 15, 40, len(full) - 7} {
		if err := open(full[:cut]); !errors.Is(err, errBadShardFile) {
			t.Errorf("truncation at %d: got %v, want errBadShardFile", cut, err)
		}
	}
}

func TestExportShardErrors(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportShardV2(m, sharding.Singular(&cfg), 1, &buf, nil); err == nil {
		t.Error("singular export should fail")
	}
	if err := ExportShardV2(m, plan, 0, &buf, nil); err == nil {
		t.Error("shard 0 should fail")
	}
	if err := ExportShardV2(m, plan, 3, &buf, nil); err == nil {
		t.Error("out-of-range shard should fail")
	}
	if buf.Len() != 0 {
		t.Errorf("failed exports wrote %d bytes", buf.Len())
	}
}
