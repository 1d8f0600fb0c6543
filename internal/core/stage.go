package core

import (
	"fmt"
	"sort"

	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// Row staging, shard side and orchestrator side. Table storage stays
// immutable (Section III-A1): a session stages whole tables in their
// cold-tier encoding — empty for a migration or rebuild, a clone of the
// held copy for a freshness delta — and one commit cuts the whole set
// over at a new epoch. Readers in flight keep the old copy; the next
// request sees the new one.

// stageChunkRows bounds rows per sparse.read / sparse.stage.rows call.
// In-package tests lower it to force multi-chunk streams.
var stageChunkRows = 4096

// cloneStaged copies a table's cold tier into fresh staging storage in
// the same encoding. The source may be mmap-backed; the clone is heap.
func cloneStaged(t embedding.Table) (*stagedTable, error) {
	switch cold := coldOf(t).(type) {
	case *embedding.Dense:
		st, err := newStaged(TierEncFP32, int32(cold.NumRows()), int32(cold.Dim()))
		if err != nil {
			return nil, err
		}
		copy(st.dense.Data, cold.Data)
		return st, nil
	case *embedding.FP16:
		enc := cold.Encoding()
		st, err := newStaged(TierEncFP16, int32(enc.Rows), int32(enc.Cols))
		if err != nil {
			return nil, err
		}
		copy(st.fp16.Data, enc.Data)
		return st, nil
	case *embedding.Quantized:
		enc := cold.Encoding()
		e := TierEncInt8
		if enc.Bits == quant.Bits4 {
			e = TierEncInt4
		}
		st, err := newStaged(e, int32(enc.Rows), int32(enc.Cols))
		if err != nil {
			return nil, err
		}
		copy(st.q.Scales, enc.Scales)
		copy(st.q.Biases, enc.Biases)
		copy(st.q.Packed, enc.Packed)
		return st, nil
	}
	return nil, fmt.Errorf("core: cannot stage a clone of %T", t)
}

// ModelVersion returns the highest committed update version (0 before
// any publish) — the freshness gauge the publisher's lag probe reads.
func (s *SparseShard) ModelVersion() uint64 { return s.modelVersion.Load() }

func (s *SparseShard) handleRead(ctx trace.Context, body []byte) ([]byte, error) {
	m, err := DecodeReadRequest(body)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	tab, ok := s.tables[tableKey{id: int(m.TableID), part: int(m.PartIndex)}]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: %s does not hold table %d part %d", s.ShardName, m.TableID, m.PartIndex)
	}
	cold := coldOf(tab)
	enc, err := tableEnc(tab)
	if err != nil {
		return nil, fmt.Errorf("core: %s: table %d part %d: %w", s.ShardName, m.TableID, m.PartIndex, err)
	}
	resp := &ReadResponse{Rows: int32(cold.NumRows()), Dim: int32(cold.Dim()), Enc: enc}
	if m.RowCount > 0 {
		lo, hi := int(m.RowStart), int(m.RowStart+m.RowCount)
		if lo < 0 || hi > cold.NumRows() || lo >= hi {
			return nil, fmt.Errorf("core: %s: read rows [%d, %d) of %d", s.ShardName, lo, hi, cold.NumRows())
		}
		start := s.rec.Now()
		// Stream the cold tier's native encoding: fp32 rows as float32
		// payload, encoded tiers as verbatim bytes, so a staged copy is
		// bit-identical.
		switch ct := cold.(type) {
		case *embedding.Dense:
			resp.Data = append([]float32(nil), ct.Data[lo*ct.Dim():hi*ct.Dim()]...)
		case *embedding.FP16:
			resp.Raw = ct.Encoding().AppendRowRange(nil, lo, hi)
		case *embedding.Quantized:
			resp.Raw = ct.Encoding().AppendRowRange(nil, lo, hi)
		}
		s.rec.Record(trace.Span{
			TraceID: ctx.TraceID, CallID: ctx.CallID, Layer: trace.LayerMigration,
			Name:  fmt.Sprintf("read/t%d.%d", m.TableID, m.PartIndex),
			Start: start, Dur: s.rec.Now().Sub(start),
		})
		s.met.stageReads.Inc()
	}
	return EncodeReadResponse(resp), nil
}

func (s *SparseShard) handleStageBegin(ctx trace.Context, body []byte) ([]byte, error) {
	m, err := DecodeStageBegin(body)
	if err != nil {
		return nil, err
	}
	id, err := s.stageBegin(ctx, m)
	if err != nil {
		return nil, err
	}
	return EncodeStageRef(&StageRef{Session: id}), nil
}

func (s *SparseShard) handleStageRows(ctx trace.Context, body []byte) ([]byte, error) {
	m, err := DecodeStageRows(body)
	if err != nil {
		return nil, err
	}
	return nil, s.stageRows(ctx, m)
}

func (s *SparseShard) handleStageCommit(ctx trace.Context, body []byte) ([]byte, error) {
	m, err := DecodeStageCommit(body)
	if err != nil {
		return nil, err
	}
	ack, err := s.stageCommit(ctx, m)
	if err != nil {
		return nil, err
	}
	return EncodeStageCommitResponse(ack), nil
}

// handleStageAbort discards a session's staged tables — the cleanup an
// orchestrator fires when a stream fails partway, so the shard does not
// strand table-sized buffers. Aborting an unknown (or already committed)
// session is a no-op, so cleanup is safe to fire unconditionally.
func (s *SparseShard) handleStageAbort(body []byte) ([]byte, error) {
	m, err := DecodeStageRef(body)
	if err != nil {
		return nil, err
	}
	s.stageAbort(m.Session)
	return nil, nil
}

// stageBegin adds one table to a session (opening one when m.Session is
// 0) and returns the session ID.
func (s *SparseShard) stageBegin(ctx trace.Context, m *StageBegin) (uint64, error) {
	start := s.rec.Now()
	var held embedding.Table
	var stage *stagedTable
	var err error
	if m.Clone {
		held, stage, err = s.cloneHeld(m)
	} else if m.Rows <= 0 || m.Dim <= 0 {
		err = fmt.Errorf("stage begin with shape %dx%d", m.Rows, m.Dim)
	} else {
		stage, err = newStaged(m.Enc, m.Rows, m.Dim)
	}
	if err != nil {
		return 0, fmt.Errorf("core: %s: %w", s.ShardName, err)
	}
	stage.clone = m.Clone
	id, err := s.addStaged(m, held, stage)
	if err != nil {
		return 0, err
	}
	s.rec.Record(trace.Span{
		TraceID: ctx.TraceID, CallID: ctx.CallID, Layer: trace.LayerMigration,
		Name:  fmt.Sprintf("stage/begin/s%d/t%d.%d", id, m.TableID, m.PartIndex),
		Start: start, Dur: s.rec.Now().Sub(start),
	})
	s.met.stageBegins.Inc()
	return id, nil
}

// addStaged files prepared staging under m's session (opening one when
// m.Session is 0). A clone is refused if held is no longer the shard's
// copy.
func (s *SparseShard) addStaged(m *StageBegin, held embedding.Table, stage *stagedTable) (uint64, error) {
	key := tableKey{id: int(m.TableID), part: int(m.PartIndex)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.tables[key]; m.Clone && (!ok || cur != held) {
		// A migration or concurrent commit replaced the copy mid-clone;
		// the clone may be stale. The publisher retries against the new
		// table set.
		return 0, fmt.Errorf("core: %s: table %d part %d changed during stage begin; retry", s.ShardName, m.TableID, m.PartIndex)
	}
	id := m.Session
	if id == 0 {
		id = s.sessions.Add(1)
		s.staging[id] = make(map[tableKey]*stagedTable)
	}
	sess, ok := s.staging[id]
	if !ok {
		return 0, fmt.Errorf("core: %s: stage begin for unknown session %d", s.ShardName, id)
	}
	sess[key] = stage
	return id, nil
}

// cloneHeld clones the held copy of m's table after cross-checking it
// against the begin's shape and encoding. It returns the held table so
// addStaged can detect a swap that landed during the clone.
func (s *SparseShard) cloneHeld(m *StageBegin) (embedding.Table, *stagedTable, error) {
	s.mu.RLock()
	tab, ok := s.tables[tableKey{id: int(m.TableID), part: int(m.PartIndex)}]
	s.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("stage begin for table %d part %d not held", m.TableID, m.PartIndex)
	}
	cold := coldOf(tab)
	enc, err := tableEnc(tab)
	if err != nil {
		return nil, nil, err
	}
	if int(m.Rows) != cold.NumRows() || int(m.Dim) != cold.Dim() || m.Enc != enc {
		return nil, nil, fmt.Errorf("stage begin %dx%d enc %d for table %d part %d held as %dx%d enc %d",
			m.Rows, m.Dim, m.Enc, m.TableID, m.PartIndex, cold.NumRows(), cold.Dim(), enc)
	}
	// Clone outside the lock: storage is immutable, so the copy is
	// consistent even while lookups proceed.
	stage, err := cloneStaged(tab)
	return tab, stage, err
}

func (s *SparseShard) stageRows(ctx trace.Context, m *StageRows) error {
	s.mu.RLock()
	stage := s.staging[m.Session][tableKey{id: int(m.TableID), part: int(m.PartIndex)}]
	s.mu.RUnlock()
	if stage == nil {
		return fmt.Errorf("core: %s: stage rows s%d for table %d part %d without begin", s.ShardName, m.Session, m.TableID, m.PartIndex)
	}
	if int(m.Dim) != stage.dim() {
		return fmt.Errorf("core: %s: stage rows dim %d for staged dim %d", s.ShardName, m.Dim, stage.dim())
	}
	if m.Enc != stage.enc {
		return fmt.Errorf("core: %s: stage rows encoding %d for staged encoding %d", s.ShardName, m.Enc, stage.enc)
	}
	start := s.rec.Now()
	// A session's row ranges arrive sequentially from one orchestrator
	// and land in preallocated staging, so writes need no lock.
	var err error
	if stage.enc == TierEncFP32 {
		err = stage.writeF32(int(m.RowStart), m.Data)
	} else {
		_, err = stage.writeRaw(int(m.RowStart), m.Raw)
	}
	if err != nil {
		return fmt.Errorf("core: %s: %w", s.ShardName, err)
	}
	s.rec.Record(trace.Span{
		TraceID: ctx.TraceID, CallID: ctx.CallID, Layer: trace.LayerMigration,
		Name:  fmt.Sprintf("stage/rows/s%d/t%d.%d", m.Session, m.TableID, m.PartIndex),
		Start: start, Dur: s.rec.Now().Sub(start),
	})
	s.met.stageRows.Inc()
	s.met.stageBytes.Add(int64(4*len(m.Data) + len(m.Raw)))
	return nil
}

// stageCommit installs every table of a session, in sorted key order,
// under one lock and at one epoch bump. Tables staged empty become
// authoritative (any forward for them is cleared); cloned tables install
// only if the shard still holds them — one migrated away since begin
// gets the delta at its new holder, and installing it here would
// resurrect a dropped copy.
func (s *SparseShard) stageCommit(ctx trace.Context, m *StageCommit) (*StageCommitResponse, error) {
	s.mu.Lock()
	sess, ok := s.staging[m.Session]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: %s: stage commit for session %d without begin", s.ShardName, m.Session)
	}
	delete(s.staging, m.Session)
	keys := make([]tableKey, 0, len(sess))
	for key, stage := range sess {
		if _, held := s.tables[key]; held || !stage.clone {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	// Materialize every table before installing any, so a bad stage
	// leaves the table set untouched.
	tabs := make([]embedding.Table, len(keys))
	for i, key := range keys {
		tab, err := sess[key].table()
		if err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("core: %s: stage commit s%d: %w", s.ShardName, m.Session, err)
		}
		tabs[i] = tab
	}
	for i, key := range keys {
		// The committed copy starts with a cold cache: tierWrap fronts it
		// with an empty one (nothing of a previous copy's cache can leak
		// in) and keeps the staged encoding as-is.
		s.tables[key] = s.tierWrap(key.id, tabs[i])
		if !sess[key].clone {
			delete(s.forwards, key)
		}
	}
	s.mu.Unlock()
	epoch := s.epoch.Add(1)
	for {
		cur := s.modelVersion.Load()
		if m.Version <= cur || s.modelVersion.CompareAndSwap(cur, m.Version) {
			break
		}
	}
	s.retier()
	s.met.stageCommits.Inc()
	s.rec.Record(trace.Span{
		TraceID: ctx.TraceID, CallID: ctx.CallID, Layer: trace.LayerMigration,
		Name:  fmt.Sprintf("stage/commit/s%d/v%d", m.Session, m.Version),
		Start: s.rec.Now(),
	})
	return &StageCommitResponse{Epoch: epoch, Version: s.modelVersion.Load(), Tables: int32(len(keys))}, nil
}

func (s *SparseShard) stageAbort(session uint64) {
	s.mu.Lock()
	delete(s.staging, session)
	s.mu.Unlock()
}

// callShard issues one control-plane RPC to a shard endpoint.
func callShard(rec *trace.Recorder, ep ShardEndpoint, method string, body []byte) ([]byte, error) {
	resp, err := rpc.SyncCall(ep.Caller, &rpc.Request{Method: method, CallID: rec.NextID(), Body: body})
	if err != nil {
		return nil, fmt.Errorf("core: %s %s: %w", ep.Service, method, err)
	}
	return resp.Body, nil
}

// readShard reads a row range of a table the endpoint holds; RowCount 0
// reads only its shape.
func readShard(rec *trace.Recorder, ep ShardEndpoint, m *ReadRequest) (*ReadResponse, error) {
	out, err := callShard(rec, ep, MethodSparseRead, EncodeReadRequest(m))
	if err != nil {
		return nil, err
	}
	return DecodeReadResponse(out)
}

// stageSink is one staging session seen from its orchestrator: on a
// remote shard (remoteStage) or on the rebuilding shard itself
// (localStage).
type stageSink interface {
	begin(m *StageBegin) error
	rows(m *StageRows) error
	commit(version uint64) (*StageCommitResponse, error)
	abort()
}

// runStage fills a session and commits it at version. On any failure
// it aborts the session (best effort) so the shard does not strand
// staged storage, and returns the failure.
func runStage(sink stageSink, version uint64, fill func() error) (*StageCommitResponse, error) {
	err := fill()
	var ack *StageCommitResponse
	if err == nil {
		ack, err = sink.commit(version)
	}
	if err != nil {
		sink.abort()
		return nil, err
	}
	return ack, nil
}

// remoteStage drives a session on another shard over sparse.stage.*; the
// shard assigns the session ID at the first begin.
type remoteStage struct {
	ep      ShardEndpoint
	rec     *trace.Recorder
	session uint64
}

func (r *remoteStage) begin(m *StageBegin) error {
	m.Session = r.session
	out, err := callShard(r.rec, r.ep, MethodStageBegin, EncodeStageBegin(m))
	if err != nil {
		return err
	}
	ref, err := DecodeStageRef(out)
	if err != nil {
		return err
	}
	r.session = ref.Session
	return nil
}

func (r *remoteStage) rows(m *StageRows) error {
	m.Session = r.session
	_, err := callShard(r.rec, r.ep, MethodStageRows, EncodeStageRows(m))
	return err
}

func (r *remoteStage) commit(version uint64) (*StageCommitResponse, error) {
	out, err := callShard(r.rec, r.ep, MethodStageCommit, EncodeStageCommit(&StageCommit{Session: r.session, Version: version}))
	if err != nil {
		return nil, err
	}
	return DecodeStageCommitResponse(out)
}

// abort is best effort: the stream already failed, and the shard treats
// an unknown or committed session as a no-op.
func (r *remoteStage) abort() {
	if r.session != 0 {
		_, _ = callShard(r.rec, r.ep, MethodStageAbort, EncodeStageRef(&StageRef{Session: r.session}))
	}
}

// localStage drives a session on the shard itself, with no RPC: a
// rebuild stages straight into its own storage.
type localStage struct {
	s       *SparseShard
	session uint64
}

func (l *localStage) begin(m *StageBegin) error {
	m.Session = l.session
	id, err := l.s.stageBegin(trace.Context{}, m)
	if err != nil {
		return err
	}
	l.session = id
	return nil
}

func (l *localStage) rows(m *StageRows) error {
	m.Session = l.session
	return l.s.stageRows(trace.Context{}, m)
}

func (l *localStage) commit(version uint64) (*StageCommitResponse, error) {
	return l.s.stageCommit(trace.Context{}, &StageCommit{Session: l.session, Version: version})
}

func (l *localStage) abort() { l.s.stageAbort(l.session) }

// copyRows copies one table (or row-partition) of shape e from the src
// shard into empty staging at sink: begin in the source's encoding, then
// read and write row ranges, checking each range's encoding and length.
// Returns the row payload bytes copied.
func copyRows(rec *trace.Recorder, src ShardEndpoint, e SnapshotEntry, sink stageSink) (int64, error) {
	if err := sink.begin(&StageBegin{TableID: e.TableID, PartIndex: e.PartIndex, Rows: e.Rows, Dim: e.Dim, Enc: e.Enc}); err != nil {
		return 0, err
	}
	rawStride := 0
	if e.Enc != TierEncFP32 {
		var err error
		if rawStride, err = tierEncStride(e.Enc, e.Dim); err != nil {
			return 0, err
		}
	}
	var moved int64
	for row := int32(0); row < e.Rows; row += int32(stageChunkRows) {
		count := min(int32(stageChunkRows), e.Rows-row)
		chunk, err := readShard(rec, src, &ReadRequest{TableID: e.TableID, PartIndex: e.PartIndex, RowStart: row, RowCount: count})
		if err != nil {
			return moved, err
		}
		if chunk.Enc != e.Enc {
			return moved, fmt.Errorf("encoding changed %d -> %d mid-stream", e.Enc, chunk.Enc)
		}
		if e.Enc == TierEncFP32 && int32(len(chunk.Data)) != count*e.Dim {
			return moved, fmt.Errorf("read %d values for %d rows", len(chunk.Data), count)
		}
		if e.Enc != TierEncFP32 && len(chunk.Raw) != int(count)*rawStride {
			return moved, fmt.Errorf("read %d raw bytes for %d rows", len(chunk.Raw), count)
		}
		if err := sink.rows(&StageRows{
			TableID: e.TableID, PartIndex: e.PartIndex, RowStart: row,
			Dim: e.Dim, Enc: e.Enc, Data: chunk.Data, Raw: chunk.Raw,
		}); err != nil {
			return moved, err
		}
		moved += int64(4*len(chunk.Data) + len(chunk.Raw))
	}
	return moved, nil
}
