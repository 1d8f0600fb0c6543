package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// localCaller adapts a Handler into an in-process rpc.Caller so forward
// hops in these tests need no TCP server.
type localCaller struct{ h rpc.Handler }

func (l *localCaller) Go(req *rpc.Request) *rpc.Call {
	call := &rpc.Call{Req: req, Done: make(chan struct{})}
	body, err := l.h.Handle(trace.Context{TraceID: req.TraceID, CallID: req.CallID}, req.Method, req.Body)
	if err != nil {
		call.Err = err
	} else {
		call.Resp = &rpc.Response{CallID: req.CallID, Body: body}
	}
	close(call.Done)
	return call
}

func (l *localCaller) Close() error { return nil }

// tierConfigFor builds a shard tier config that quantizes every table of
// the tiny model (whose tables are all below the planner's default
// MinTableBytes) at the given precision.
func tierConfigFor(cfg *model.Config, prec sharding.Precision, cacheMB float64) *TierConfig {
	return &TierConfig{
		CacheMB: cacheMB,
		Plan:    sharding.PlanTiers(cfg, sharding.TierOptions{ColdPrecision: prec, MinTableBytes: 1}),
	}
}

// newTieredMigrationFixture is newMigrationFixture with the tiered store
// enabled on both shards.
func newTieredMigrationFixture(t *testing.T, prec sharding.Precision, cacheMB float64) *migrationFixture {
	t.Helper()
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 1<<14), trace.NewRecorder("sparse2", 1<<14)}
	shards, err := MaterializeShardsTiered(m, plan, recs, tierConfigFor(&cfg, prec, cacheMB))
	if err != nil {
		t.Fatal(err)
	}
	f := &migrationFixture{m: m, plan: plan, shards: shards}
	t.Cleanup(func() {
		for _, sh := range f.shards {
			sh.Close()
		}
	})
	return f
}

// TestTieredMigrationIdentity walks an encoded (int8 + cached) table
// through the cutover states and requires byte-identical pooled results
// throughout: encoded rows stream verbatim, the committed copy starts
// with a cold cache, and the double-read window serves from the
// retained tiered copy.
func TestTieredMigrationIdentity(t *testing.T) {
	for _, prec := range []sharding.Precision{sharding.PrecisionFP32, sharding.PrecisionFP16, sharding.PrecisionInt8} {
		t.Run(string(prec), func(t *testing.T) {
			f := newTieredMigrationFixture(t, prec, 1)
			src, dst := f.shards[0], f.shards[1]
			id := f.plan.Shards[0].Tables[0]
			ctx := trace.Context{TraceID: 11}
			body := f.runRequest(t, 42)

			// Warm the source cache so migration must cope with live
			// cached state.
			before, err := src.Handle(ctx, MethodSparseRun, body)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := src.Handle(ctx, MethodSparseRun, body); err != nil || !bytes.Equal(before, again) {
				t.Fatalf("warm-cache replay diverged (err %v)", err)
			}

			f.migrateTable(t, id, 5)

			// The committed copy's encoding must match the source's.
			srcStats, dstStats := src.TierSnapshot(), dst.TierSnapshot()
			switch prec {
			case sharding.PrecisionInt8:
				if dstStats.Int8 == 0 {
					t.Fatalf("destination has no int8 tables after migration: %+v", dstStats)
				}
			case sharding.PrecisionFP16:
				if dstStats.FP16 == 0 {
					t.Fatalf("destination has no fp16 tables after migration: %+v", dstStats)
				}
			}
			_ = srcStats

			// Double-read window: source still serves identically.
			during, err := src.Handle(ctx, MethodSparseRun, body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, during) {
				t.Fatal("double-read during cutover diverged")
			}

			// Source forwards to the destination; results still identical.
			caller := &localCaller{h: dst}
			src.BeginForward(id, 0, "sparse2", caller, true)
			after, err := src.Handle(ctx, MethodSparseRun, body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("forwarded result diverged from pre-migration result")
			}
		})
	}
}

// TestTieredShardMatchesPlainFP32 pins that enabling the cache over an
// fp32 cold tier changes nothing: a tiered shard and a plain shard
// serve byte-identical responses.
func TestTieredShardMatchesPlainFP32(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := func() []*trace.Recorder {
		return []*trace.Recorder{trace.NewRecorder("sparse1", 1<<14), trace.NewRecorder("sparse2", 1<<14)}
	}
	plain, err := MaterializeShards(m, plan, recs())
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := MaterializeShardsTiered(m, plan, recs(), &TierConfig{CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := &migrationFixture{m: m, plan: plan, shards: plain}
	body := f.runRequest(t, 7)
	ctx := trace.Context{}
	want, err := plain[0].Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ { // later passes serve from the cache
		got, err := tiered[0].Handle(ctx, MethodSparseRun, body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("pass %d: tiered fp32 shard diverged from plain shard", pass)
		}
	}
	if st := tiered[0].TierSnapshot(); st.Hits == 0 {
		t.Fatalf("replays produced no cache hits: %+v", st)
	}
}

// TestSetTierWrapsImportedTables covers drmserve's -shard-dir path:
// install plain fp32 tables, then SetTier encodes and caches them.
func TestSetTierWrapsImportedTables(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
	for id, tab := range m.Tables {
		sh.AddTable(id, tab)
	}
	before := sh.Bytes()
	sh.SetTier(tierConfigFor(&cfg, sharding.PrecisionInt8, 0.01))
	st := sh.TierSnapshot()
	if st.Int8 != len(m.Tables) {
		t.Fatalf("SetTier quantized %d of %d tables", st.Int8, len(m.Tables))
	}
	if st.ColdBytes >= before {
		t.Fatalf("tiering did not shrink cold bytes: %d -> %d", before, st.ColdBytes)
	}
	if st.CacheCapBytes == 0 {
		t.Fatal("cache budget not apportioned")
	}
	budgetMB := 0.01
	if budget := int64(budgetMB * float64(1<<20)); st.CacheCapBytes > budget {
		t.Fatalf("cache backing %d exceeds the %d-byte budget", st.CacheCapBytes, budget)
	}
}

// TestRetierFollowsLoad pins the budget apportionment: after skewed
// traffic, the hot table's cache capacity must exceed a cold one's.
func TestRetierFollowsLoad(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
	// A deliberately scarce budget: the apportionment must choose, so the
	// hot table's share visibly beats a cold one's.
	sh.SetTier(tierConfigFor(&cfg, sharding.PrecisionInt8, 0.002))
	for id, tab := range m.Tables {
		sh.AddTable(id, tab)
	}
	// Fold skewed measured load straight into the accumulator: table 0
	// carries 100× the lookups of the rest.
	sh.loadMu.Lock()
	for id := range m.Tables {
		lookups := int64(10)
		if id == 0 {
			lookups = 1000
		}
		sh.load.Add(sharding.TableLoadKey{TableID: id}, sharding.TableLoad{Lookups: lookups, Calls: 1})
	}
	sh.loadMu.Unlock()
	sh.retier()

	capOf := func(id int) int {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		tt, ok := sh.tables[tableKey{id: id}].(*embedding.TieredTable)
		if !ok {
			t.Fatalf("table %d not tiered", id)
		}
		return tt.Capacity()
	}
	hot, cold := capOf(0), capOf(1)
	if hot <= cold {
		t.Fatalf("hot table capacity %d not above cold %d", hot, cold)
	}
}

// TestRetierFloorSeedsNewcomer pins the migrated-table case: a table
// that just arrived has zero measured load on this shard — it moved
// because it was hot at the *source* — and must still be seeded with a
// bytes-proportional slice of the cache budget instead of starting (and
// staying) cacheless.
func TestRetierFloorSeedsNewcomer(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
	sh.SetTier(tierConfigFor(&cfg, sharding.PrecisionInt8, 0.05))
	for id, tab := range m.Tables {
		sh.AddTable(id, tab)
	}
	// Existing tables carry measured load; the newcomer will not.
	sh.loadMu.Lock()
	for id := range m.Tables {
		sh.load.Add(sharding.TableLoadKey{TableID: id}, sharding.TableLoad{Lookups: 500, Calls: 1})
	}
	sh.loadMu.Unlock()

	newcomer := len(m.Tables)
	sh.InstallTable(newcomer, 0, embedding.NewDense(64, 16))
	sh.mu.RLock()
	tt, ok := sh.tables[tableKey{id: newcomer}].(*embedding.TieredTable)
	sh.mu.RUnlock()
	if !ok {
		t.Fatal("newcomer not tiered")
	}
	if tt.Capacity() == 0 {
		t.Fatal("zero-load newcomer received no cache capacity (bytes floor missing)")
	}
}

// TestStagedTableErrors covers the staging guards: unknown encodings,
// chunk encoding mismatches, and raw writes against fp32 staging.
// TestRetierDeterministic pins the cache-budget split to table order:
// building the same shard with the same measured load must size every
// cache identically run after run, not drift with map iteration order
// of the table set.
func TestRetierDeterministic(t *testing.T) {
	cfg := tinyConfig()
	build := func() map[int]int {
		m := model.Build(cfg)
		sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
		sh.SetTier(tierConfigFor(&cfg, sharding.PrecisionInt8, 0.002))
		for id, tab := range m.Tables {
			sh.AddTable(id, tab)
		}
		sh.loadMu.Lock()
		for id := range m.Tables {
			sh.load.Add(sharding.TableLoadKey{TableID: id},
				sharding.TableLoad{Lookups: int64(100 * (id + 1)), Calls: 1})
		}
		sh.loadMu.Unlock()
		sh.retier()
		caps := make(map[int]int)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		for key, tab := range sh.tables {
			if tt, ok := tab.(*embedding.TieredTable); ok {
				caps[key.id] = tt.Capacity()
			}
		}
		return caps
	}
	base := build()
	if len(base) == 0 {
		t.Fatal("no tiered tables built")
	}
	for run := 0; run < 8; run++ {
		caps := build()
		for id, c := range caps {
			if c != base[id] {
				t.Fatalf("run %d: table %d capacity %d, first run gave %d", run, id, c, base[id])
			}
		}
	}
}

func TestStagedTableErrors(t *testing.T) {
	if _, err := newStaged(99, 4, 4); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	st, err := newStaged(TierEncFP32, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.writeRaw(0, make([]byte, 8)); err == nil {
		t.Fatal("raw write into fp32 staging accepted")
	}
	qst, err := newStaged(TierEncInt8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := qst.writeF32(0, make([]float32, 4)); err == nil {
		t.Fatal("fp32 write into int8 staging accepted")
	}

	// Wire-level: a chunk whose encoding disagrees with begin is refused.
	f := newTieredMigrationFixture(t, sharding.PrecisionInt8, 0)
	dst := f.shards[1]
	id := f.plan.Shards[0].Tables[0]
	ctx := trace.Context{}
	shape := readRows(t, f.shards[0], id, 0, 0, 0)
	if shape.Enc != TierEncInt8 {
		t.Fatalf("int8 fixture reports encoding %d", shape.Enc)
	}
	session := beginStage(t, dst, &StageBegin{TableID: int32(id), Rows: shape.Rows, Dim: shape.Dim, Enc: shape.Enc})
	_, err = dst.Handle(ctx, MethodStageRows, EncodeStageRows(&StageRows{
		Session: session, TableID: int32(id), RowStart: 0, Dim: shape.Dim, Enc: TierEncFP32,
		Data: make([]float32, int(shape.Dim)),
	}))
	if err == nil || !strings.Contains(err.Error(), "encoding") {
		t.Fatalf("mismatched chunk encoding accepted (err %v)", err)
	}
}

// TestTableEncClassification covers the wire encoding classifier.
func TestTableEncClassification(t *testing.T) {
	d := embedding.NewDense(4, 4)
	cases := []struct {
		tab  embedding.Table
		want int32
	}{
		{d, TierEncFP32},
		{d.ToFP16(), TierEncFP16},
		{d.Quantize(quant.Bits8), TierEncInt8},
		{d.Quantize(quant.Bits4), TierEncInt4},
		{embedding.NewTiered(d.Quantize(quant.Bits8), 2), TierEncInt8},
	}
	for i, c := range cases {
		got, err := tableEnc(c.tab)
		if err != nil || got != c.want {
			t.Fatalf("case %d: enc %d err %v, want %d", i, got, err, c.want)
		}
	}
	if _, err := tierEncStride(TierEncFP32, 4); err == nil {
		t.Fatal("fp32 has no raw stride")
	}
	if s, err := tierEncStride(TierEncInt4, 5); err != nil || s != 4+3 {
		t.Fatalf("int4 stride %d err %v", s, err)
	}
}
