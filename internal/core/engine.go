package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ServiceName returns the registry name for a sparse shard number.
func ServiceName(shard int) string { return fmt.Sprintf("sparse%d", shard) }

// EngineConfig configures a main-shard engine.
type EngineConfig struct {
	// BatchSize overrides the model's production-default batch size; 0
	// keeps the default. Section VI-F's single-batch experiments set this
	// to a value at or above the largest request.
	BatchSize int
	// Recorder receives main-shard spans; required.
	Recorder *trace.Recorder
	// ClientFor resolves a sparse shard service name to a connected RPC
	// caller (a plain client, or a hedged replica set). Required for
	// distributed plans.
	ClientFor func(service string) (rpc.Caller, error)
	// Obs receives the engine's live metrics (engine.* namespace). Nil or
	// obs.Discard() turns instrumentation into no-op nil handles.
	Obs *obs.Registry
}

// engineMetrics is the engine's live-telemetry handle set. All handles
// are nil (free no-ops) when the engine runs without a registry.
type engineMetrics struct {
	requests *obs.Counter // engine executions (a coalesced batch counts once)
	batches  *obs.Counter // sub-batch executions (runBatch calls)

	coalesceNs    *obs.Histogram // assembling the combined request
	executeNs     *obs.Histogram // coalesced engine execution
	demuxNs       *obs.Histogram // splitting scores back per request
	batchRequests *obs.Histogram // requests per coalesced execution
	batchItems    *obs.Histogram // items per coalesced execution

	rpcCalls         *obs.Counter   // sparse RPC calls issued
	rpcOutstandingNs *obs.Histogram // per-call outstanding time at the main shard
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	return engineMetrics{
		requests:         r.Counter("engine.requests"),
		batches:          r.Counter("engine.batches"),
		coalesceNs:       r.Histogram("engine.coalesce_ns"),
		executeNs:        r.Histogram("engine.execute_ns"),
		demuxNs:          r.Histogram("engine.demux_ns"),
		batchRequests:    r.Histogram("engine.batch_requests"),
		batchItems:       r.Histogram("engine.batch_items"),
		rpcCalls:         r.Counter("engine.rpc.calls"),
		rpcOutstandingNs: r.Histogram("engine.rpc.outstanding_ns"),
	}
}

// Engine executes ranking requests for one model under one sharding plan.
// It is the main shard: dense layers run locally; sparse operators either
// run in-line (singular) or fan out through asynchronous RPC operators.
// Engines are safe for concurrent Execute calls, and the plan can be
// swapped live via Reroute: each request reads the program pointer once,
// so a rebalance cutover flips routing between requests, never within
// one.
type Engine struct {
	model *model.Model
	cfg   EngineConfig
	// params holds the dense-layer parameters compiled into programs —
	// initially the model's, replaced as a unit by SwapDense. Guarded by
	// rerouteMu for writers; compile reads it under the same lock.
	params []model.NetParams
	// prog holds the compiled (plan, nets) program; Reroute swaps it
	// atomically under rerouteMu.
	prog      atomic.Pointer[engineProgram]
	rerouteMu sync.Mutex
	// rawNames[tid] / hashedNames[tid] are the workspace bag blob names,
	// precomputed so per-batch op assembly does no string formatting.
	rawNames    []string
	hashedNames []string
	// combined recycles the coalesced-request buffers ExecuteBatch
	// assembles (batch.go); shapes depend only on the model, so the pool
	// survives reroutes.
	combined sync.Pool
	// met holds the engine's metric handles (nil no-ops without a
	// registry).
	met engineMetrics
}

// engineProgram is one compiled routing generation: the plan and its
// per-net programs, swapped as a unit, plus the workspace-arena pool
// built from the program's dense-blob liveness (schedule.go) — batches
// executing under this generation draw their dense output blobs from
// recycled slabs instead of allocating.
type engineProgram struct {
	plan   *sharding.Plan
	nets   []*netProgram
	arenas *nn.ArenaPool
}

// netProgram is the compiled form of one net under the plan. Static
// operators (dense layers, hashing, in-line SLS) are built once and
// shared across batches — they are stateless against the workspace; only
// the asynchronous RPC operators are constructed per batch because they
// carry the batch's trace context and collectors.
type netProgram struct {
	spec   model.NetSpec
	params model.NetParams
	tables []model.TableSpec // this net's tables, ID order
	// embCols and colOff lay the tables out in the fused embedding
	// matrix.
	embCols int
	colOff  map[int]int
	// interactSet marks tables joining the pairwise interaction.
	interactSet map[int]bool
	// pooledNames[tid] names the standalone pooled blob of an
	// interaction table.
	pooledNames map[int]string
	// remote groups tables by serving shard for distributed plans.
	remote []remoteGroupSpec
	// sources counts pooling contributors per table ID (1 for whole
	// tables, NumParts for partitioned ones).
	sources map[int]int
	// preOps run before embedding access; postOps after. Both are shared
	// across batches. slsOp is the singular in-line fused op (nil when
	// distributed).
	preOps  []nn.Op
	slsOp   nn.Op
	postOps []nn.Op
	embBlob string
	outBlob string
	lastNet bool
}

type remoteGroupSpec struct {
	service string
	client  rpc.Caller
	entries []groupEntry
}

// NewEngine compiles a model + plan into an executable engine, resolving
// sparse shard clients eagerly so wiring failures surface at startup.
func NewEngine(m *model.Model, plan *sharding.Plan, cfg EngineConfig) (*Engine, error) {
	if cfg.Recorder == nil {
		return nil, fmt.Errorf("core: engine requires a recorder")
	}
	e := &Engine{model: m, cfg: cfg, params: m.NetParams, met: newEngineMetrics(cfg.Obs)}
	e.rawNames = make([]string, len(m.Config.Tables))
	e.hashedNames = make([]string, len(m.Config.Tables))
	for i := range m.Config.Tables {
		e.rawNames[i] = fmt.Sprintf("raw_%d", i)
		e.hashedNames[i] = fmt.Sprintf("hashed_%d", i)
	}
	prog, err := e.compile(plan)
	if err != nil {
		return nil, err
	}
	e.prog.Store(prog)
	return e, nil
}

// Reroute recompiles the engine against a new sharding plan and swaps it
// in atomically — the main-shard half of an online-resharding cutover.
// Requests already executing keep the old routing; the shards they hit
// double-read or forward during the migration grace window, so no
// request observes a torn placement.
func (e *Engine) Reroute(plan *sharding.Plan) error {
	e.rerouteMu.Lock()
	defer e.rerouteMu.Unlock()
	prog, err := e.compile(plan)
	if err != nil {
		return fmt.Errorf("core: reroute: %w", err)
	}
	e.prog.Store(prog)
	return nil
}

// SwapDense atomically replaces the dense-layer parameters (bottom/top
// MLPs and projection) with a freshly published set of identical shapes,
// recompiling the current plan — the dense-weight half of a model
// freshness publish. Requests already executing finish on the old
// program; the next request sees the new weights. Embedding deltas
// travel separately through sparse.stage.*.
func (e *Engine) SwapDense(params []model.NetParams) error {
	e.rerouteMu.Lock()
	defer e.rerouteMu.Unlock()
	if len(params) != len(e.params) {
		return fmt.Errorf("core: swap dense: %d nets, engine has %d", len(params), len(e.params))
	}
	for i := range params {
		if err := sameDenseShapes(&e.params[i], &params[i]); err != nil {
			return fmt.Errorf("core: swap dense: net %d: %w", i, err)
		}
	}
	old := e.params
	e.params = params
	prog, err := e.compile(e.prog.Load().plan)
	if err != nil {
		e.params = old
		return fmt.Errorf("core: swap dense: %w", err)
	}
	e.prog.Store(prog)
	return nil
}

// sameDenseShapes checks a replacement net-parameter set is layer-for-
// layer shape-identical to the current one.
func sameDenseShapes(cur, next *model.NetParams) error {
	checkFC := func(what string, a, b model.FCParams) error {
		if a.W.Rows != b.W.Rows || a.W.Cols != b.W.Cols || len(a.B) != len(b.B) {
			return fmt.Errorf("%s shape %dx%d+%d, want %dx%d+%d",
				what, b.W.Rows, b.W.Cols, len(b.B), a.W.Rows, a.W.Cols, len(a.B))
		}
		return nil
	}
	if len(cur.Bottom) != len(next.Bottom) || len(cur.Top) != len(next.Top) {
		return fmt.Errorf("layer counts %d/%d, want %d/%d", len(next.Bottom), len(next.Top), len(cur.Bottom), len(cur.Top))
	}
	for i := range cur.Bottom {
		if err := checkFC(fmt.Sprintf("bottom[%d]", i), cur.Bottom[i], next.Bottom[i]); err != nil {
			return err
		}
	}
	if err := checkFC("proj", cur.Proj, next.Proj); err != nil {
		return err
	}
	for i := range cur.Top {
		if err := checkFC(fmt.Sprintf("top[%d]", i), cur.Top[i], next.Top[i]); err != nil {
			return err
		}
	}
	return nil
}

// compile builds one routing generation for a plan.
func (e *Engine) compile(plan *sharding.Plan) (*engineProgram, error) {
	m := e.model
	if err := plan.Validate(&m.Config); err != nil {
		return nil, fmt.Errorf("core: invalid plan: %w", err)
	}
	prog := &engineProgram{plan: plan}
	prevOut := ""
	for i, ns := range m.Config.Nets {
		np := &netProgram{
			spec:        ns,
			params:      e.params[i],
			tables:      m.Config.NetTables(ns.Name),
			sources:     make(map[int]int),
			colOff:      make(map[int]int),
			interactSet: make(map[int]bool),
			pooledNames: make(map[int]string),
			embBlob:     "emb_" + ns.Name,
			outBlob:     "out_" + ns.Name,
			lastNet:     i == len(m.Config.Nets)-1,
		}
		off := 0
		for _, t := range np.tables {
			np.colOff[t.ID] = off
			off += t.Dim
		}
		np.embCols = off
		for _, id := range pickInteract(np.tables, ns.InteractFeatures) {
			np.interactSet[id] = true
			np.pooledNames[id] = fmt.Sprintf("pooled_%s_%d", ns.Name, id)
		}
		if plan.IsDistributed() {
			if e.cfg.ClientFor == nil {
				return nil, fmt.Errorf("core: distributed plan requires ClientFor")
			}
			if err := compileRemote(np, plan, e.cfg.ClientFor); err != nil {
				return nil, err
			}
		} else {
			for _, t := range np.tables {
				np.sources[t.ID] = 1
			}
		}
		e.compileOps(plan, np, prevOut)
		prevOut = np.outBlob
		prog.nets = append(prog.nets, np)
	}
	sched, err := buildSchedule(prog)
	if err != nil {
		return nil, fmt.Errorf("core: blob schedule: %w", err)
	}
	prog.arenas = nn.NewArenaPool(sched)
	return prog, nil
}

// pickInteract chooses the first k tables sharing the net's tail-table
// dimension (pairwise dots need equal dims; mixed-dim nets like DRM3
// exclude the odd-sized dominating table).
func pickInteract(tables []model.TableSpec, k int) []int {
	if len(tables) == 0 || k <= 0 {
		return nil
	}
	dim := tables[len(tables)-1].Dim
	var out []int
	for _, t := range tables {
		if t.Dim == dim {
			out = append(out, t.ID)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

func compileRemote(np *netProgram, plan *sharding.Plan, clientFor func(string) (rpc.Caller, error)) error {
	inNet := make(map[int]model.TableSpec, len(np.tables))
	for _, t := range np.tables {
		inNet[t.ID] = t
	}
	for i := range plan.Shards {
		a := &plan.Shards[i]
		var entries []groupEntry
		for _, id := range a.Tables {
			if t, ok := inNet[id]; ok {
				entries = append(entries, groupEntry{tableID: id, partIndex: 0, numParts: 1, rows: t.Rows, dim: t.Dim})
				np.sources[id]++
			}
		}
		for _, pr := range a.Parts {
			if t, ok := inNet[pr.TableID]; ok {
				entries = append(entries, groupEntry{
					tableID: pr.TableID, partIndex: pr.PartIndex, numParts: pr.NumParts,
					rows: t.Rows, dim: t.Dim,
				})
				np.sources[pr.TableID]++
			}
		}
		if len(entries) == 0 {
			continue // shard holds no tables of this net
		}
		svc := ServiceName(a.Shard)
		client, err := clientFor(svc)
		if err != nil {
			return fmt.Errorf("core: resolving %s: %w", svc, err)
		}
		np.remote = append(np.remote, remoteGroupSpec{service: svc, client: client, entries: entries})
	}
	for _, t := range np.tables {
		if np.sources[t.ID] == 0 {
			return fmt.Errorf("core: table %d of %s unserved by plan", t.ID, np.spec.Name)
		}
	}
	return nil
}

// compileOps builds the static (batch-shareable) operator lists.
func (e *Engine) compileOps(plan *sharding.Plan, np *netProgram, prevOut string) {
	netName := np.spec.Name

	// --- preOps: dense preprocessing, bottom MLP, hashing. ---
	var pre []nn.Op
	pre = append(pre, &nn.ScaleClip{
		OpName: "scaleclip_" + netName, Scale: 1.0 / 8, Lo: -4, Hi: 4, Blob: "dense_" + netName,
	})
	in := "dense_" + netName
	if prevOut != "" {
		pre = append(pre, &nn.ConcatOp{
			OpName: "concat_in_" + netName, Inputs: []string{in, prevOut}, Output: "in_" + netName,
		})
		in = "in_" + netName
	}
	cur := in
	for li, fc := range np.params.Bottom {
		out := fmt.Sprintf("bot%d_%s", li, netName)
		pre = append(pre, &nn.FusedFC{
			OpName: fmt.Sprintf("fc_bot%d_%s", li, netName),
			W:      fc.W, B: fc.B, Act: nn.ActReLU, Input: cur, Output: out,
		})
		cur = out
	}
	bottom := cur
	hash := &nn.HashAllBags{OpName: "hash_" + netName}
	for _, t := range np.tables {
		hash.Entries = append(hash.Entries, nn.HashEntry{
			Buckets: int32(t.Rows),
			Input:   e.rawNames[t.ID],
			Output:  e.hashedNames[t.ID],
		})
	}
	pre = append(pre, hash)
	np.preOps = pre

	// --- in-line fused SLS for the singular configuration. The output
	// blob is materialized by a separate Fill operator, as Caffe2 does,
	// so storage cost attributes to Fill rather than Sparse. ---
	if !plan.IsDistributed() {
		np.preOps = append(np.preOps, &nn.AllocEmb{
			OpName: "fill_emb_" + netName, RowsFrom: e.rawNames[np.tables[0].ID],
			Cols: np.embCols, Output: np.embBlob,
		})
		sls := &nn.FusedSLS{OpName: "sls_" + netName, Output: np.embBlob, Cols: np.embCols}
		for _, t := range np.tables {
			entry := nn.FusedSLSEntry{
				Table:     e.model.Tables[t.ID],
				InputBags: e.hashedNames[t.ID],
				ColOffset: np.colOff[t.ID],
			}
			if np.interactSet[t.ID] {
				entry.CopyOut = np.pooledNames[t.ID]
			}
			sls.Entries = append(sls.Entries, entry)
		}
		np.slsOp = sls
	}

	// --- postOps: projection, interaction, top MLP, output head. The FC
	// stacks compile to FusedFC: bias and activation run inside the GEMM
	// workers' tile epilogues (bitwise identical to separate bias and
	// activation passes), and outputs draw from the workspace arena. ---
	var post []nn.Op
	post = append(post, &nn.FusedFC{OpName: "fc_proj_" + netName, W: np.params.Proj.W, B: np.params.Proj.B, Input: np.embBlob, Output: "proj_" + netName})
	inter := &nn.Interaction{OpName: "interact_" + netName, Passthrough: bottom, Output: "int_" + netName}
	for _, t := range np.tables {
		if np.interactSet[t.ID] {
			inter.Features = append(inter.Features, np.pooledNames[t.ID])
		}
	}
	post = append(post, inter)
	post = append(post, &nn.ConcatOp{
		OpName: "concat_top_" + netName, Inputs: []string{"proj_" + netName, "int_" + netName}, Output: "top0_" + netName,
	})
	cur = "top0_" + netName
	for li, fc := range np.params.Top {
		out := fmt.Sprintf("top%d_%s", li+1, netName)
		act := nn.ActNone
		switch {
		case li < len(np.params.Top)-1:
			act = nn.ActReLU
		case np.lastNet:
			// The output head: the final FC fuses the sigmoid directly.
			act = nn.ActSigmoid
		}
		post = append(post, &nn.FusedFC{
			OpName: fmt.Sprintf("fc_top%d_%s", li, netName),
			W:      fc.W, B: fc.B, Act: act, Input: cur, Output: out,
		})
		cur = out
	}
	if np.lastNet && len(np.params.Top) == 0 {
		// Degenerate top stack: nothing to fuse the head into.
		post = append(post, &nn.Activation{OpName: "sigmoid_" + netName, Func: nn.ActSigmoid, Blob: cur})
	}
	post = append(post, &renameOp{name: "output_" + netName, from: cur, to: np.outBlob})
	np.postOps = post
}

// FromWorkload converts a generated workload request to its wire form.
func FromWorkload(req *workload.Request) *RankingRequest {
	out := &RankingRequest{
		ID: req.ID, Items: int32(req.Items),
		Dense: req.Dense,
		Bags:  make(map[int32][]embedding.Bag, len(req.Bags)),
	}
	for tid, bags := range req.Bags {
		out.Bags[int32(tid)] = bags
	}
	return out
}

// BatchSize returns the effective items-per-batch.
func (e *Engine) BatchSize() int {
	if e.cfg.BatchSize > 0 {
		return e.cfg.BatchSize
	}
	return e.model.Config.DefaultBatch
}

// Plan returns the engine's current sharding plan.
func (e *Engine) Plan() *sharding.Plan { return e.prog.Load().plan }

// Config returns the engine's model configuration.
func (e *Engine) Config() *model.Config { return &e.model.Config }

// Validate checks a request's shape against the model without running it.
func (e *Engine) Validate(req *RankingRequest) error {
	items := int(req.Items)
	if items <= 0 {
		return fmt.Errorf("core: request %d has no items", req.ID)
	}
	for _, ns := range e.model.Config.Nets {
		m := req.Dense[ns.Name]
		if m == nil || m.Rows != items || m.Cols != ns.DenseDim {
			return fmt.Errorf("core: request %d dense input for %s malformed", req.ID, ns.Name)
		}
	}
	for _, t := range e.model.Config.Tables {
		if bags := req.Bags[int32(t.ID)]; len(bags) != items {
			return fmt.Errorf("core: request %d has %d bags for table %d (want %d)", req.ID, len(bags), t.ID, items)
		}
	}
	return nil
}

// Execute runs one ranking request: the request is split into
// ⌈items/batch⌉ batches executed in parallel (the paper's batch-level
// parallelism), each batch running the model's nets sequentially. It
// returns one score per item.
func (e *Engine) Execute(ctx trace.Context, req *RankingRequest) ([]float32, error) {
	if err := e.Validate(req); err != nil {
		return nil, err
	}
	return e.executeValidated(ctx, req)
}

// executeValidated is Execute after shape validation: batch-level
// parallel execution of one (possibly coalesced) request.
func (e *Engine) executeValidated(ctx trace.Context, req *RankingRequest) ([]float32, error) {
	e.met.requests.Inc()
	// One program load per request: every batch of this request routes
	// under the same plan generation even if Reroute lands mid-flight.
	prog := e.prog.Load()
	items := int(req.Items)
	b := e.BatchSize()
	nb := (items + b - 1) / b
	scores := make([]float32, items)
	errs := make([]error, nb)
	var wg sync.WaitGroup
	for bi := 0; bi < nb; bi++ {
		start, end := bi*b, (bi+1)*b
		if end > items {
			end = items
		}
		wg.Add(1)
		go func(bi, start, end int) {
			defer wg.Done()
			e.met.batches.Inc()
			out, err := e.runBatch(prog, ctx, req, start, end)
			if err != nil {
				errs[bi] = err
				return
			}
			copy(scores[start:end], out)
		}(bi, start, end)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scores, nil
}

// runBatch executes one batch (items [start, end) of the request) through
// all nets sequentially, under one routing generation.
func (e *Engine) runBatch(prog *engineProgram, ctx trace.Context, req *RankingRequest, start, end int) ([]float32, error) {
	ws := nn.NewWorkspace()
	obs := &trace.NetObserver{R: e.cfg.Recorder, Ctx: ctx}
	batchItems := end - start

	// One pooled arena per batch backs every scheduled dense blob; it is
	// recycled after the scores are copied out, so steady-state dense
	// execution allocates nothing. Nothing drawn from the arena may
	// escape this function.
	if arena := prog.arenas.Get(batchItems); arena != nil {
		ws.SetArena(arena)
		defer prog.arenas.Put(arena)
	}

	for _, ns := range e.model.Config.Nets {
		m := req.Dense[ns.Name]
		// ScaleClip mutates in place; copy this batch's rows (into the
		// arena when scheduled) so concurrent batches do not stomp the
		// shared request tensor.
		dst := ws.AllocBlob("dense_"+ns.Name, batchItems, m.Cols)
		copy(dst.Data, m.Data[start*m.Cols:end*m.Cols])
		ws.SetBlob("dense_"+ns.Name, dst)
	}
	for _, t := range e.model.Config.Tables {
		ws.SetBags(e.rawNames[t.ID], req.Bags[int32(t.ID)][start:end])
	}

	var finalOut string
	for _, np := range prog.nets {
		ops := make([]nn.Op, 0, len(np.preOps)+len(np.remote)+1+len(np.postOps))
		ops = append(ops, np.preOps...)
		if np.slsOp != nil {
			ops = append(ops, np.slsOp)
		} else {
			ops = append(ops, e.buildRPCOps(ws, np, ctx, batchItems)...)
			blobs := []string{np.embBlob}
			for _, t := range np.tables {
				if np.interactSet[t.ID] {
					blobs = append(blobs, np.pooledNames[t.ID])
				}
			}
			ops = append(ops, &waitOp{name: "wait_" + np.spec.Name, blobs: blobs})
		}
		ops = append(ops, np.postOps...)
		net := &nn.Net{NetName: np.spec.Name, Ops: ops}
		if err := net.Run(ws, obs); err != nil {
			return nil, fmt.Errorf("core: request %d %s: %w", req.ID, np.spec.Name, err)
		}
		finalOut = np.outBlob
	}

	final, err := ws.Blob(finalOut)
	if err != nil {
		return nil, err
	}
	if final.Cols != 1 || final.Rows != batchItems {
		return nil, fmt.Errorf("core: final output is %dx%d, want %dx1", final.Rows, final.Cols, batchItems)
	}
	out := make([]float32, batchItems)
	for r := 0; r < batchItems; r++ {
		out[r] = final.At(r, 0)
	}
	return out, nil
}

// buildRPCOps constructs the per-batch asynchronous RPC operators plus
// the collectors that assemble the fused embedding matrix, registering
// its future (and per-interaction-table futures) on the workspace.
func (e *Engine) buildRPCOps(ws *nn.Workspace, np *netProgram, ctx trace.Context, batchItems int) []nn.Op {
	asm := newEmbAssembler(batchItems, np.embCols, len(np.tables))
	ws.RegisterFuture(np.embBlob, asm.future)
	collectors := make(map[int]*collector, len(np.tables))
	for _, t := range np.tables {
		var interact *nn.Future
		if np.interactSet[t.ID] {
			interact = nn.NewFuture()
			ws.RegisterFuture(np.pooledNames[t.ID], interact)
		}
		collectors[t.ID] = newCollector(np.sources[t.ID], batchItems, t.Dim, asm, np.colOff[t.ID], interact)
	}
	ops := make([]nn.Op, 0, len(np.remote))
	for _, g := range np.remote {
		ops = append(ops, &rpcOp{
			name:        "rpc_" + np.spec.Name + "_" + g.service,
			net:         np.spec.Name,
			service:     g.service,
			client:      g.client,
			entries:     g.entries,
			collectors:  collectors,
			rec:         e.cfg.Recorder,
			ctx:         ctx,
			batchItems:  batchItems,
			hashedNames: e.hashedNames,
			calls:       e.met.rpcCalls,
			outNs:       e.met.rpcOutstandingNs,
		})
	}
	return ops
}

// renameOp aliases a blob under the net's canonical output name.
type renameOp struct {
	name     string
	from, to string
}

// Name implements nn.Op.
func (o *renameOp) Name() string { return o.name }

// Kind implements nn.Op.
func (o *renameOp) Kind() nn.OpKind { return nn.KindMemoryTransform }

// Run implements nn.Op.
func (o *renameOp) Run(ws *nn.Workspace) error {
	m, err := ws.WaitBlob(o.from)
	if err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	ws.SetBlob(o.to, m)
	return nil
}
