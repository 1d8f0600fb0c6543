package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// layer names where a benchmark span was recorded.
type layer uint8

const (
	layMain     layer = iota // the main shard's rank handler: decode, frontend, encode
	layFrontend              // frontend.Submit: queueing, batching, execution
	layEngine                // Engine.ExecuteBatch, one span per coalesced request
	layRPC                   // one sparse RPC as the engine's caller sees it
	layHandle                // SparseShard.Handle of one sparse.run call
)

var layerNames = [...]string{"main", "frontend", "engine", "rpc.sparse", "sparse.handle"}

// spanRec is one span the benchmark recorded around a call into a layer.
// Spans of one request share its trace id; parent is the id of the span
// that caused this one (0 for a request's root). Times are nanoseconds
// since the tracer's epoch.
type spanRec struct {
	id, parent uint64
	traceID    uint64
	// callID is the sparse RPC's call id for layRPC and layHandle, and
	// the coalesced batch's sequence number for layEngine.
	callID     uint64
	layer      layer
	shard      int8 // sparse shard index for layHandle, else -1
	start, end int64
}

func (s spanRec) dur() int64         { return s.end - s.start }
func (s spanRec) interval() interval { return interval{s.start, s.end} }

// tracer records spans at the layer boundaries of a deployment built
// from public constructors: around the main handler, the frontend's
// Submit, the frontend's executor, the engine's sparse callers and the
// sparse shards' handlers. Spans stay in memory until the run ends.
// While off, every wrapper is a plain pass-through.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []spanRec

	// Open spans, for children to name as parent: frontend spans by
	// trace id, the engine's batch span by the batch's first trace id
	// (the trace id its sparse calls carry), RPC spans by call id.
	frontOf, engOf, callOf sync.Map

	batches atomic.Uint64
	// rowSets holds the rows each open batch has sent to the shards,
	// keyed like engOf.
	rowSets             sync.Map
	rowLookups, rowDups atomic.Int64
	reqBytes, respBytes atomic.Int64
	rpcErrors           atomic.Int64
	// pending counts RPC spans whose calls have not finished recording.
	pending sync.WaitGroup
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin allocates a span id and stamps its start.
func (t *tracer) begin() (uint64, int64) { return t.ids.Add(1), t.now() }

func (t *tracer) record(s spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func parentID(m *sync.Map, key uint64) uint64 {
	if v, ok := m.Load(key); ok {
		return v.(uint64)
	}
	return 0
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeSpans writes every recorded span to path, one tab-separated line
// each: id, parent, trace id, call id, layer, shard, start ns, end ns.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttrace\tcall\tlayer\tshard\tstart_ns\tend_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n",
			s.id, s.parent, s.traceID, s.callID, layerNames[s.layer], s.shard, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedMain wraps the main shard's frontend service. Traced, it runs
// the same core.HandleRank the service runs, with a span around it and
// one around the frontend's Submit.
type tracedMain struct {
	svc *frontend.Service
	t   *tracer
}

func (h *tracedMain) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	t := h.t
	if !t.on.Load() {
		return h.svc.Handle(ctx, method, body)
	}
	id, start := t.begin()
	out, err := core.HandleRank(h.svc.Rec, ctx, method, body, func(c trace.Context, req *core.RankingRequest) ([]float32, error) {
		fid, fstart := t.begin()
		t.frontOf.Store(c.TraceID, fid)
		scores, err := h.svc.F.Submit(c, req)
		t.frontOf.Delete(c.TraceID)
		t.record(spanRec{id: fid, parent: id, traceID: c.TraceID, layer: layFrontend, shard: -1, start: fstart, end: t.now()})
		return scores, err
	})
	t.record(spanRec{id: id, traceID: ctx.TraceID, layer: layMain, shard: -1, start: start, end: t.now()})
	return out, err
}

// tracedExec wraps the engine as the frontend's executor.
type tracedExec struct {
	eng *core.Engine
	t   *tracer
}

func (x *tracedExec) Validate(req *core.RankingRequest) error { return x.eng.Validate(req) }

func (x *tracedExec) ExecuteBatch(items []core.BatchItem) ([][]float32, error) {
	t := x.t
	if !t.on.Load() || len(items) == 0 {
		return x.eng.ExecuteBatch(items)
	}
	lead := items[0].Ctx.TraceID
	batch := t.batches.Add(1)
	ids := make([]uint64, len(items))
	for i := range ids {
		ids[i] = t.ids.Add(1)
	}
	rows := &batchRows{seen: make(map[uint64]struct{})}
	t.engOf.Store(lead, ids[0])
	t.rowSets.Store(lead, rows)
	start := t.now()
	out, err := x.eng.ExecuteBatch(items)
	end := t.now()
	t.engOf.Delete(lead)
	t.rowSets.Delete(lead)
	t.rowLookups.Add(rows.lookups)
	t.rowDups.Add(rows.dups)
	for i, it := range items {
		t.record(spanRec{
			id: ids[i], parent: parentID(&t.frontOf, it.Ctx.TraceID), traceID: it.Ctx.TraceID,
			callID: batch, layer: layEngine, shard: -1, start: start, end: end,
		})
	}
	return out, err
}

// tracedCaller wraps one sparse shard's client as the engine sees it.
type tracedCaller struct {
	inner rpc.Caller
	t     *tracer
}

func (c *tracedCaller) Go(req *rpc.Request) *rpc.Call {
	t := c.t
	if !t.on.Load() {
		return c.inner.Go(req)
	}
	if v, ok := t.rowSets.Load(req.TraceID); ok {
		v.(*batchRows).add(req.Body)
	}
	id, start := t.begin()
	t.callOf.Store(req.CallID, id)
	parent := parentID(&t.engOf, req.TraceID)
	call := c.inner.Go(req)
	t.pending.Add(1)
	go func() {
		defer t.pending.Done()
		<-call.Done
		end := t.now()
		t.callOf.Delete(req.CallID)
		t.reqBytes.Add(int64(len(req.Body)))
		if call.Resp != nil {
			t.respBytes.Add(int64(len(call.Resp.Body)))
		}
		if call.Err != nil {
			t.rpcErrors.Add(1)
		}
		t.record(spanRec{
			id: id, parent: parent, traceID: req.TraceID, callID: req.CallID,
			layer: layRPC, shard: -1, start: start, end: end,
		})
	}()
	return call
}

func (c *tracedCaller) Close() error { return c.inner.Close() }

// tracedHandler wraps one sparse shard's RPC handler; it records
// sparse.run calls and passes the control plane through.
type tracedHandler struct {
	sh    *core.SparseShard
	shard int8
	t     *tracer
}

func (h *tracedHandler) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	t := h.t
	if method != core.MethodSparseRun || !t.on.Load() {
		return h.sh.Handle(ctx, method, body)
	}
	id, start := t.begin()
	out, err := h.sh.Handle(ctx, method, body)
	t.record(spanRec{
		id: id, parent: parentID(&t.callOf, ctx.CallID), traceID: ctx.TraceID, callID: ctx.CallID,
		layer: layHandle, shard: h.shard, start: start, end: t.now(),
	})
	return out, err
}

// batchRows counts, over one coalesced execution, the embedding rows
// its sparse calls look up and how many of those repeat a row already
// looked up in the same execution.
type batchRows struct {
	mu            sync.Mutex
	seen          map[uint64]struct{}
	lookups, dups int64
}

// add decodes one sparse request and folds its rows in. A row is a
// (table, partition, local row) triple.
func (b *batchRows) add(body []byte) {
	req, err := core.DecodeSparseRequest(body)
	if err != nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range req.Entries {
		key := uint64(e.TableID)<<40 | uint64(e.PartIndex)<<32
		for _, bag := range e.Bags {
			for _, row := range bag.Indices {
				k := key | uint64(uint32(row))
				b.lookups++
				if _, ok := b.seen[k]; ok {
					b.dups++
				} else {
					b.seen[k] = struct{}{}
				}
			}
		}
	}
}
