package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// migrationFixture materializes a 2-shard deployment of the tiny model
// with a live RPC server per shard, returning the shards, per-shard
// callers, and a sparse request exercising every table of shard 1.
type migrationFixture struct {
	m      *model.Model
	plan   *sharding.Plan
	shards []*SparseShard
	srvs   []*rpc.Server
	calls  []*rpc.Client
}

func newMigrationFixture(t *testing.T) *migrationFixture {
	t.Helper()
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 1<<14), trace.NewRecorder("sparse2", 1<<14)}
	shards, err := MaterializeShards(m, plan, recs)
	if err != nil {
		t.Fatal(err)
	}
	f := &migrationFixture{m: m, plan: plan, shards: shards}
	for i, sh := range shards {
		srv, err := rpc.NewServer("127.0.0.1:0", sh, rpc.ServerConfig{Recorder: recs[i]})
		if err != nil {
			t.Fatal(err)
		}
		f.srvs = append(f.srvs, srv)
		cl, err := rpc.Dial(srv.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		f.calls = append(f.calls, cl)
	}
	t.Cleanup(func() {
		for _, c := range f.calls {
			c.Close()
		}
		for _, s := range f.srvs {
			s.Close()
		}
		for _, sh := range f.shards {
			sh.Close()
		}
	})
	return f
}

// runRequest builds a sparse request for every whole table of shard 1
// using a deterministic workload draw.
func (f *migrationFixture) runRequest(t *testing.T, seed int64) []byte {
	t.Helper()
	gen := workload.NewGenerator(f.m.Config, seed)
	wreq := gen.Next()
	req := &SparseRequest{Net: f.m.Config.Nets[0].Name}
	for _, id := range f.plan.Shards[0].Tables {
		if f.m.Config.Tables[id].Net != req.Net {
			continue
		}
		req.Entries = append(req.Entries, SparseEntry{
			TableID: int32(id), NumParts: 1, Bags: hashBags(wreq.Bags[id], f.m.Config.Tables[id].Rows),
		})
	}
	if len(req.Entries) == 0 {
		t.Fatal("fixture: shard 1 holds no tables of net1")
	}
	return EncodeSparseRequest(req)
}

// hashBags maps raw workload IDs into table buckets (the main shard's
// Hash operator, inlined for the test).
func hashBags(bags []embedding.Bag, rows int) []embedding.Bag {
	out := make([]embedding.Bag, len(bags))
	for i, b := range bags {
		for _, idx := range b.Indices {
			out[i].Indices = append(out[i].Indices, idx%int32(rows))
		}
	}
	return out
}

// readRows reads count rows of a held table from start over sparse.read
// (count 0 reads only the shape).
func readRows(t *testing.T, sh *SparseShard, id, part int, start, count int32) *ReadResponse {
	t.Helper()
	out, err := sh.Handle(trace.Context{}, MethodSparseRead, EncodeReadRequest(&ReadRequest{
		TableID: int32(id), PartIndex: int32(part), RowStart: start, RowCount: count,
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeReadResponse(out)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// beginStage adds a table to a stage session on sh (Session 0 opens one)
// and returns the session ID.
func beginStage(t *testing.T, sh *SparseShard, m *StageBegin) uint64 {
	t.Helper()
	out, err := sh.Handle(trace.Context{}, MethodStageBegin, EncodeStageBegin(m))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := DecodeStageRef(out)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Session == 0 {
		t.Fatal("stage begin issued session 0")
	}
	return ref.Session
}

// stageRows delivers one row range into a session on sh.
func stageRows(t *testing.T, sh *SparseShard, m *StageRows) {
	t.Helper()
	if _, err := sh.Handle(trace.Context{}, MethodStageRows, EncodeStageRows(m)); err != nil {
		t.Fatal(err)
	}
}

// commitStage commits a session on sh at version.
func commitStage(t *testing.T, sh *SparseShard, session, version uint64) *StageCommitResponse {
	t.Helper()
	out, err := sh.Handle(trace.Context{}, MethodStageCommit, EncodeStageCommit(&StageCommit{Session: session, Version: version}))
	if err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeStageCommitResponse(out)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// migrateTable drives the full wire protocol for one whole table from
// shard 1 to shard 2 in chunks of the given rows (pick a non-divisor of
// the row count), carrying the source's cold-tier encoding.
func (f *migrationFixture) migrateTable(t *testing.T, id int, chunk int32) {
	t.Helper()
	src, dst := f.shards[0], f.shards[1]
	shape := readRows(t, src, id, 0, 0, 0)
	session := beginStage(t, dst, &StageBegin{TableID: int32(id), Rows: shape.Rows, Dim: shape.Dim, Enc: shape.Enc})
	for row := int32(0); row < shape.Rows; row += chunk {
		rr := readRows(t, src, id, 0, row, min(chunk, shape.Rows-row))
		if rr.Enc != shape.Enc {
			t.Fatalf("encoding changed mid-stream: %d -> %d", shape.Enc, rr.Enc)
		}
		stageRows(t, dst, &StageRows{
			Session: session, TableID: int32(id), RowStart: row, Dim: shape.Dim, Enc: shape.Enc,
			Data: rr.Data, Raw: rr.Raw,
		})
	}
	if ack := commitStage(t, dst, session, 0); ack.Tables != 1 || ack.Version != 0 {
		t.Fatalf("migration commit ack %+v, want 1 table at version 0", ack)
	}
}

// TestMigrationMidCutoverIdentity walks one table through every cutover
// state — pre-migration, staged-but-uncommitted, committed with the
// source double-reading, and released with the source forwarding — and
// requires byte-identical pooled results throughout.
func TestMigrationMidCutoverIdentity(t *testing.T) {
	f := newMigrationFixture(t)
	src, dst := f.shards[0], f.shards[1]
	id := f.plan.Shards[0].Tables[0]
	ctx := trace.Context{TraceID: 7}
	body := f.runRequest(t, 99)

	before, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}

	epoch0 := dst.Epoch()
	f.migrateTable(t, id, 7)
	if dst.Epoch() <= epoch0 {
		t.Fatal("commit must advance the destination epoch")
	}

	// Committed at the destination, source still authoritative for its
	// in-flight traffic: the retained copy double-reads identically.
	during, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, during) {
		t.Fatal("double-read during cutover diverged from pre-migration result")
	}

	// Source releases and forwards: lookups still land at the source
	// (stale routing) but are answered by the destination.
	srcEpoch := src.Epoch()
	src.BeginForward(id, 0, "sparse2", f.calls[1], true)
	if src.Epoch() <= srcEpoch {
		t.Fatal("forward must advance the source epoch")
	}
	after, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("forwarded lookup diverged from pre-migration result")
	}

	// The destination also serves the table directly (new routing).
	direct, err := dst.Handle(ctx, MethodSparseRun, body)
	if err == nil {
		_ = direct
	} else if !strings.Contains(err.Error(), "does not hold") {
		// Other tables of the request still live on the source, so a
		// direct full-request hit on the destination correctly rejects;
		// anything else is a protocol bug.
		t.Fatalf("unexpected destination error: %v", err)
	}
}

// TestMigrationForwardOverWire installs the forward via the RPC control
// plane (dial-by-address), as the Migrator does between processes.
func TestMigrationForwardOverWire(t *testing.T) {
	f := newMigrationFixture(t)
	src := f.shards[0]
	id := f.plan.Shards[0].Tables[0]
	ctx := trace.Context{TraceID: 8}
	body := f.runRequest(t, 123)

	before, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	f.migrateTable(t, id, 7)
	out, err := src.Handle(ctx, MethodMigrateForward, EncodeMigrateForward(&MigrateForward{
		TableID: int32(id), Service: "sparse2", Addr: f.srvs[1].Addr(), Release: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ep, err := DecodeEpochResponse(out); err != nil || ep.Epoch == 0 {
		t.Fatalf("epoch response = %v, %v", ep, err)
	}
	after, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("wire-forwarded lookup diverged from pre-migration result")
	}
}

// TestMigrationProtocolErrors pins the control plane's failure modes.
func TestMigrationProtocolErrors(t *testing.T) {
	f := newMigrationFixture(t)
	src, dst := f.shards[0], f.shards[1]
	id := f.plan.Shards[0].Tables[0]
	ctx := trace.Context{}
	commit := func(session uint64) error {
		_, err := dst.Handle(ctx, MethodStageCommit, EncodeStageCommit(&StageCommit{Session: session}))
		return err
	}

	if _, err := dst.Handle(ctx, MethodStageRows, EncodeStageRows(&StageRows{
		Session: 1, TableID: int32(id), Dim: 4, Data: make([]float32, 4),
	})); err == nil || !strings.Contains(err.Error(), "without begin") {
		t.Fatalf("rows without begin: %v", err)
	}
	if err := commit(1); err == nil || !strings.Contains(err.Error(), "without begin") {
		t.Fatalf("commit without begin: %v", err)
	}
	if _, err := dst.Handle(ctx, MethodStageBegin, EncodeStageBegin(&StageBegin{
		Session: 99, TableID: int32(id), Rows: 8, Dim: 4,
	})); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("begin into an unopened session: %v", err)
	}
	if _, err := dst.Handle(ctx, MethodStageBegin, EncodeStageBegin(&StageBegin{TableID: int32(id), Dim: 4})); err == nil {
		t.Fatal("empty-shape begin must fail")
	}
	if _, err := src.Handle(ctx, MethodSparseRead, EncodeReadRequest(&ReadRequest{
		TableID: int32(id), RowStart: 1 << 20, RowCount: 8,
	})); err == nil {
		t.Fatal("out-of-range read must fail")
	}
	if _, err := src.Handle(ctx, MethodSparseRead, EncodeReadRequest(&ReadRequest{TableID: 9999})); err == nil {
		t.Fatal("read of unheld table must fail")
	}
	if _, err := src.Handle(ctx, "sparse.nope", nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unknown method: %v", err)
	}

	// Abort drops staged storage: a commit after begin+abort must fail
	// exactly like a commit that was never begun, and aborting an
	// unknown session is a no-op.
	if _, err := dst.Handle(ctx, MethodStageAbort, EncodeStageRef(&StageRef{Session: 12345})); err != nil {
		t.Fatalf("abort of unknown session must be a no-op: %v", err)
	}
	session := beginStage(t, dst, &StageBegin{TableID: int32(id), Rows: 8, Dim: 4})
	if _, err := dst.Handle(ctx, MethodStageAbort, EncodeStageRef(&StageRef{Session: session})); err != nil {
		t.Fatal(err)
	}
	if err := commit(session); err == nil || !strings.Contains(err.Error(), "without begin") {
		t.Fatalf("commit after abort: %v", err)
	}
}

// TestStageSessionsIsolated: sessions open side by side on one shard —
// an empty-staged migration and a clone-staged delta — get distinct IDs,
// and each commit installs only its own tables.
func TestStageSessionsIsolated(t *testing.T) {
	f := newMigrationFixture(t)
	src, dst := f.shards[0], f.shards[1]
	moved := f.plan.Shards[0].Tables[0]
	heldID := f.plan.Shards[1].Tables[0]
	shape := readRows(t, src, moved, 0, 0, 0)
	full := readRows(t, src, moved, 0, 0, shape.Rows)
	held := readRows(t, dst, heldID, 0, 0, 0)

	mig := beginStage(t, dst, &StageBegin{TableID: int32(moved), Rows: shape.Rows, Dim: shape.Dim, Enc: shape.Enc})
	pub := beginStage(t, dst, &StageBegin{TableID: int32(heldID), Rows: held.Rows, Dim: held.Dim, Enc: held.Enc, Clone: true})
	if mig == pub {
		t.Fatalf("concurrent sessions share ID %d", mig)
	}
	// Rows addressed to the wrong session are refused.
	if _, err := dst.Handle(trace.Context{}, MethodStageRows, EncodeStageRows(&StageRows{
		Session: pub, TableID: int32(moved), Dim: shape.Dim, Data: full.Data[:shape.Dim],
	})); err == nil || !strings.Contains(err.Error(), "without begin") {
		t.Fatalf("rows for a table of another session: %v", err)
	}
	stageRows(t, dst, &StageRows{Session: mig, TableID: int32(moved), Dim: shape.Dim, Enc: shape.Enc, Data: full.Data})

	tables := dst.NumTables()
	if ack := commitStage(t, dst, pub, 4); ack.Tables != 1 || ack.Version != 4 {
		t.Fatalf("publish commit ack %+v, want 1 table at version 4", ack)
	}
	if dst.NumTables() != tables {
		t.Fatalf("publish commit installed the migration's table: %d tables, want %d", dst.NumTables(), tables)
	}
	if ack := commitStage(t, dst, mig, 0); ack.Tables != 1 || ack.Version != 4 {
		t.Fatalf("migration commit ack %+v, want 1 table, version left at 4", ack)
	}
	if dst.NumTables() != tables+1 {
		t.Fatalf("migration commit: %d tables, want %d", dst.NumTables(), tables+1)
	}
	got := readRows(t, dst, moved, 0, 0, shape.Rows)
	if !bytes.Equal(float32Bits(got.Data), float32Bits(full.Data)) {
		t.Fatal("migrated table differs from the source")
	}

	// Orchestrators racing on one shard — migration-style sessions that abort,
	// and a publish-style loop committing clones — never share an ID.
	rec := trace.NewRecorder("orchestrator", 1<<12)
	ep := ShardEndpoint{Service: dst.ShardName, Caller: &localCaller{h: dst}}
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	claim := func(session uint64) {
		mu.Lock()
		defer mu.Unlock()
		if seen[session] {
			t.Errorf("session %d issued twice", session)
		}
		seen[session] = true
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sink := &remoteStage{ep: ep, rec: rec}
				if w == 0 {
					_, err := runStage(sink, uint64(5+i), func() error {
						return sink.begin(&StageBegin{TableID: int32(heldID), Rows: held.Rows, Dim: held.Dim, Enc: held.Enc, Clone: true})
					})
					if err != nil {
						t.Error(err)
					}
				} else {
					_, err := runStage(sink, 0, func() error {
						if err := sink.begin(&StageBegin{TableID: int32(1000 + w), Rows: 2, Dim: 2}); err != nil {
							return err
						}
						return errors.New("stream failed")
					})
					if err == nil {
						t.Error("failed stream committed")
					}
				}
				claim(sink.session)
			}
		}(w)
	}
	wg.Wait()
	if len(dst.staging) != 0 {
		t.Fatalf("%d staging sessions left after commits and aborts", len(dst.staging))
	}
	if dst.ModelVersion() != 14 {
		t.Fatalf("model version %d, want 14", dst.ModelVersion())
	}
}

// TestSparseLoadAccounting checks the shard's mergeable summary: lookup
// counts match the request, service time lands on the pooled tables,
// and the wire collection round-trips with reset semantics.
func TestSparseLoadAccounting(t *testing.T) {
	f := newMigrationFixture(t)
	src := f.shards[0]
	ctx := trace.Context{TraceID: 9}
	body := f.runRequest(t, 7)
	req, err := DecodeSparseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	wantLookups := make(map[sharding.TableLoadKey]int64)
	var total int64
	for _, e := range req.Entries {
		n := int64(embedding.TotalLookups(e.Bags))
		wantLookups[sharding.TableLoadKey{TableID: int(e.TableID)}] += n
		total += n
	}
	if total == 0 {
		t.Fatal("fixture request has no lookups")
	}

	if _, err := src.Handle(ctx, MethodSparseRun, body); err != nil {
		t.Fatal(err)
	}
	out, err := src.Handle(ctx, MethodSparseLoad, EncodeLoadRequest(&LoadRequest{Reset: true}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := DecodeLoadSummary(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.TotalLookups(); got != total {
		t.Fatalf("summary lookups = %d, want %d", got, total)
	}
	for k, want := range wantLookups {
		got := sum.Tables[k]
		if got.Lookups != want {
			t.Errorf("table %v lookups = %d, want %d", k, got.Lookups, want)
		}
		if want > 0 && got.Calls != 1 {
			t.Errorf("table %v calls = %d, want 1", k, got.Calls)
		}
	}

	// Reset semantics: the next snapshot is empty.
	out, err = src.Handle(ctx, MethodSparseLoad, EncodeLoadRequest(&LoadRequest{}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err = DecodeLoadSummary(out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalLookups() != 0 {
		t.Fatalf("post-reset summary still holds %d lookups", sum.TotalLookups())
	}
}

// TestEngineRerouteSwapsPlan checks the atomic program swap: scores are
// identical before and after a reroute that relocates tables, and the
// engine reports the new plan.
func TestEngineRerouteSwapsPlan(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan := sharding.Singular(&cfg)
	rec := trace.NewRecorder("main", 1<<14)
	eng, err := NewEngine(m, plan, EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(cfg, 5)
	req := FromWorkload(gen.Next())
	before, err := eng.Execute(trace.Context{TraceID: 1}, req)
	if err != nil {
		t.Fatal(err)
	}
	// Reroute singular -> singular (a fresh compile) must preserve
	// results; a distributed reroute without ClientFor must fail and
	// leave the old program serving.
	if err := eng.Reroute(sharding.Singular(&cfg)); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Execute(trace.Context{TraceID: 2}, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(float32sBytes(before), float32sBytes(after)) {
		t.Fatal("reroute changed scores")
	}
	dist, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reroute(dist); err == nil {
		t.Fatal("distributed reroute without ClientFor must fail")
	}
	if eng.Plan().IsDistributed() {
		t.Fatal("failed reroute must not swap the program")
	}
	if _, err := eng.Execute(trace.Context{TraceID: 3}, req); err != nil {
		t.Fatalf("engine must keep serving after failed reroute: %v", err)
	}
}

func float32sBytes(xs []float32) []byte {
	out := EncodeRankingResponse(&RankingResponse{Scores: xs})
	return out
}
