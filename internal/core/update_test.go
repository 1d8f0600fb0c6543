package core

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// readTableRows reads all of a held table's rows in the cold tier's
// native encoding — the material for identity deltas.
func readTableRows(t *testing.T, sh *SparseShard, id, part int) *ReadResponse {
	t.Helper()
	return readRows(t, sh, id, part, 0, readRows(t, sh, id, part, 0, 0).Rows)
}

// applyUpdate drives a clone-staged begin → rows → commit session for
// one table with the given payload (rows in the table's encoding).
func applyUpdate(t *testing.T, sh *SparseShard, version uint64, id, part int, rows *ReadResponse) *StageCommitResponse {
	t.Helper()
	session := beginStage(t, sh, &StageBegin{
		TableID: int32(id), PartIndex: int32(part), Rows: rows.Rows, Dim: rows.Dim, Enc: rows.Enc, Clone: true,
	})
	stageRows(t, sh, &StageRows{
		Session: session, TableID: int32(id), PartIndex: int32(part), RowStart: 0,
		Dim: rows.Dim, Enc: rows.Enc, Data: rows.Data, Raw: rows.Raw,
	})
	return commitStage(t, sh, session, version)
}

// TestUpdateIdentityDelta proves an identity delta (current rows
// republished) leaves every lookup bitwise unchanged across the epoch
// cutover, at every cold precision, with and without hot-row caches.
func TestUpdateIdentityDelta(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		prec    sharding.Precision
		cacheMB float64
	}{
		{"fp32", sharding.PrecisionFP32, 0},
		{"fp16", sharding.PrecisionFP16, 0},
		{"int8", sharding.PrecisionInt8, 0},
		{"int8-cached", sharding.PrecisionInt8, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := []*trace.Recorder{trace.NewRecorder("sparse1", 64), trace.NewRecorder("sparse2", 64)}
			shards, err := MaterializeShardsTiered(m, plan, recs, tierConfigFor(&cfg, tc.prec, tc.cacheMB))
			if err != nil {
				t.Fatal(err)
			}
			sh := shards[0]
			a := &plan.Shards[0]
			if len(a.Tables) == 0 {
				t.Fatal("shard 1 holds no whole tables")
			}
			id := a.Tables[0]
			idx := []int32{0, int32(cfg.Tables[id].Rows - 1)}
			before := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, idx)
			epochBefore := sh.Epoch()

			rows := readTableRows(t, sh, id, 0)
			resp := applyUpdate(t, sh, 7, id, 0, rows)
			if resp.Version != 7 || resp.Tables != 1 {
				t.Fatalf("commit response %+v, want version 7, 1 table", resp)
			}
			if sh.Epoch() <= epochBefore {
				t.Fatalf("epoch did not advance: %d -> %d", epochBefore, sh.Epoch())
			}
			if sh.ModelVersion() != 7 {
				t.Fatalf("model version %d, want 7", sh.ModelVersion())
			}
			after := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, idx)
			if !bitsEqual(before, after) {
				t.Fatal("identity delta changed lookup bytes")
			}
		})
	}
}

// TestUpdateMutatesRows proves a real delta lands exactly: the touched
// row serves the new values, untouched rows serve old bytes.
func TestUpdateMutatesRows(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 64), trace.NewRecorder("sparse2", 64)}
	shards, err := MaterializeShards(m, plan, recs)
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	id := plan.Shards[0].Tables[0]
	dim := cfg.Tables[id].Dim
	lastRow := int32(cfg.Tables[id].Rows - 1)
	untouchedBefore := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, []int32{lastRow})

	// Publish new values for row 0 only.
	newRow := make([]float32, dim)
	for i := range newRow {
		newRow[i] = float32(i) + 0.5
	}
	session := beginStage(t, sh, &StageBegin{
		TableID: int32(id), Rows: int32(cfg.Tables[id].Rows), Dim: int32(dim), Enc: TierEncFP32, Clone: true,
	})
	stageRows(t, sh, &StageRows{Session: session, TableID: int32(id), RowStart: 0, Dim: int32(dim), Enc: TierEncFP32, Data: newRow})
	commitStage(t, sh, session, 3)

	got := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, []int32{0})
	if !bitsEqual(got, newRow) {
		t.Fatalf("row 0 after update = %v, want %v", got, newRow)
	}
	untouchedAfter := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, []int32{lastRow})
	if !bitsEqual(untouchedBefore, untouchedAfter) {
		t.Fatal("untouched row changed bytes")
	}
}

// TestUpdateErrors covers the protocol's refusal paths: rows/commit
// without begin, shape/encoding mismatches at begin, and abort dropping
// staged state.
func TestUpdateErrors(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 64), trace.NewRecorder("sparse2", 64)}
	shards, err := MaterializeShards(m, plan, recs)
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	id := plan.Shards[0].Tables[0]
	dim := int32(cfg.Tables[id].Dim)
	rowsN := int32(cfg.Tables[id].Rows)
	ctx := trace.Context{}

	begin := func(rows int32, enc int32, tid int32) error {
		_, err := sh.Handle(ctx, MethodStageBegin, EncodeStageBegin(&StageBegin{
			TableID: tid, Rows: rows, Dim: dim, Enc: enc, Clone: true,
		}))
		return err
	}
	if _, err := sh.Handle(ctx, MethodStageRows, EncodeStageRows(&StageRows{
		Session: 1, TableID: int32(id), Dim: dim, Enc: TierEncFP32, Data: make([]float32, dim),
	})); err == nil {
		t.Error("rows without begin accepted")
	}
	if _, err := sh.Handle(ctx, MethodStageCommit, EncodeStageCommit(&StageCommit{Session: 1, Version: 1})); err == nil {
		t.Error("commit without begin accepted")
	}
	if err := begin(rowsN+1, TierEncFP32, int32(id)); err == nil {
		t.Error("begin with wrong row count accepted")
	}
	if err := begin(rowsN, TierEncFP16, int32(id)); err == nil {
		t.Error("begin with wrong encoding accepted")
	}
	if err := begin(rowsN, TierEncFP32, 9999); err == nil || !strings.Contains(err.Error(), "not held") {
		t.Errorf("begin for unheld table: %v", err)
	}

	// A begun-then-aborted session refuses rows and commit.
	session := beginStage(t, sh, &StageBegin{TableID: int32(id), Rows: rowsN, Dim: dim, Enc: TierEncFP32, Clone: true})
	if _, err := sh.Handle(ctx, MethodStageAbort, EncodeStageRef(&StageRef{Session: session})); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Handle(ctx, MethodStageRows, EncodeStageRows(&StageRows{
		Session: session, TableID: int32(id), Dim: dim, Enc: TierEncFP32, Data: make([]float32, dim),
	})); err == nil {
		t.Error("rows after abort accepted")
	}
	if _, err := sh.Handle(ctx, MethodStageCommit, EncodeStageCommit(&StageCommit{Session: session, Version: 2})); err == nil {
		t.Error("commit after abort accepted")
	}
	if sh.ModelVersion() != 0 {
		t.Fatalf("model version %d after aborted update, want 0", sh.ModelVersion())
	}
}

// TestUpdateSkipsReleasedTable: a table migrated away between begin and
// commit must not be resurrected by the commit.
func TestUpdateSkipsReleasedTable(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 64), trace.NewRecorder("sparse2", 64)}
	shards, err := MaterializeShards(m, plan, recs)
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	id := plan.Shards[0].Tables[0]
	rows := readTableRows(t, sh, id, 0)
	session := beginStage(t, sh, &StageBegin{TableID: int32(id), Rows: rows.Rows, Dim: rows.Dim, Enc: rows.Enc, Clone: true})
	held := sh.NumTables()
	sh.ReleaseTable(id, 0)
	resp := commitStage(t, sh, session, 5)
	if resp.Tables != 0 {
		t.Fatalf("commit installed %d tables after release, want 0", resp.Tables)
	}
	if sh.NumTables() != held-1 {
		t.Fatalf("released table resurrected: %d tables, want %d", sh.NumTables(), held-1)
	}
	if sh.ModelVersion() != 5 {
		t.Fatalf("model version %d, want 5 (commit still acknowledges)", sh.ModelVersion())
	}
}

// TestUpdateBeginRetriesSwappedTable: a clone whose source copy was
// replaced or released while it was taken (a migration or another
// commit landed) is refused with a retry, never staged over the new set.
func TestUpdateBeginRetriesSwappedTable(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 64), trace.NewRecorder("sparse2", 64)}
	shards, err := MaterializeShards(m, plan, recs)
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	id := plan.Shards[0].Tables[0]
	rows := readTableRows(t, sh, id, 0)
	begin := &StageBegin{TableID: int32(id), Rows: rows.Rows, Dim: rows.Dim, Enc: rows.Enc, Clone: true}

	held, stage, err := sh.cloneHeld(begin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.addStaged(begin, held, stage); err != nil {
		t.Fatalf("clone of an unchanged table refused: %v", err)
	}
	fresh, err := cloneStaged(held)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := fresh.table()
	if err != nil {
		t.Fatal(err)
	}
	sh.InstallTable(id, 0, swapped)
	if _, err := sh.addStaged(begin, held, stage); err == nil || !strings.Contains(err.Error(), "retry") {
		t.Fatalf("clone of a replaced table: %v", err)
	}
	sh.ReleaseTable(id, 0)
	if _, err := sh.addStaged(begin, swapped, stage); err == nil || !strings.Contains(err.Error(), "retry") {
		t.Fatalf("clone of a released table: %v", err)
	}
}

// cloneNetParams deep-copies dense parameters so a swap test can mutate
// them independently of the model's originals.
func cloneNetParams(src []model.NetParams) []model.NetParams {
	out := make([]model.NetParams, len(src))
	cloneFC := func(p model.FCParams) model.FCParams {
		w := &tensor.Matrix{Rows: p.W.Rows, Cols: p.W.Cols, Data: append([]float32(nil), p.W.Data...)}
		return model.FCParams{W: w, B: append([]float32(nil), p.B...)}
	}
	for i, np := range src {
		out[i].Bottom = make([]model.FCParams, len(np.Bottom))
		for j, p := range np.Bottom {
			out[i].Bottom[j] = cloneFC(p)
		}
		out[i].Proj = cloneFC(np.Proj)
		out[i].Top = make([]model.FCParams, len(np.Top))
		for j, p := range np.Top {
			out[i].Top[j] = cloneFC(p)
		}
	}
	return out
}

// TestEngineSwapDense: an identical parameter set scores bitwise the
// same, a perturbed set changes scores, and a mis-shaped set is refused
// without disturbing the serving program.
func TestEngineSwapDense(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<16)
	eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	req := FromWorkload(workload.NewGenerator(cfg, 2).Next())
	before, err := eng.Execute(trace.Context{TraceID: 1}, req)
	if err != nil {
		t.Fatal(err)
	}

	if err := eng.SwapDense(cloneNetParams(m.NetParams)); err != nil {
		t.Fatal(err)
	}
	same, err := eng.Execute(trace.Context{TraceID: 2}, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(before, same) {
		t.Fatal("identical dense swap changed scores")
	}

	perturbed := cloneNetParams(m.NetParams)
	perturbed[0].Proj.W.Data[0] += 1
	if err := eng.SwapDense(perturbed); err != nil {
		t.Fatal(err)
	}
	changed, err := eng.Execute(trace.Context{TraceID: 3}, req)
	if err != nil {
		t.Fatal(err)
	}
	if bitsEqual(before, changed) {
		t.Fatal("perturbed dense swap left scores unchanged")
	}

	bad := cloneNetParams(m.NetParams)
	bad[0].Bottom = bad[0].Bottom[:len(bad[0].Bottom)-1]
	if err := eng.SwapDense(bad); err == nil {
		t.Fatal("mis-shaped dense swap accepted")
	}
	still, err := eng.Execute(trace.Context{TraceID: 4}, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(changed, still) {
		t.Fatal("failed swap disturbed the serving program")
	}
}
