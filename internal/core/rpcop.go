package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// embAssembler completes one batch's fused embedding matrix (the
// bags×ΣDim concatenation the dense layers consume): each table's
// collector writes its pooled columns in, and the matrix's future
// resolves when every table has delivered.
type embAssembler struct {
	future  *nn.Future
	emb     *tensor.Matrix
	mu      sync.Mutex
	pending int
	failed  bool
}

func newEmbAssembler(rows, cols, tables int) *embAssembler {
	return &embAssembler{future: nn.NewFuture(), emb: tensor.New(rows, cols), pending: tables}
}

// tableDone marks one table's columns written; the last one completes
// the future.
func (a *embAssembler) tableDone() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed {
		return
	}
	a.pending--
	if a.pending == 0 {
		a.future.Complete(a.emb, nil)
	}
}

// fail resolves the future with the first error.
func (a *embAssembler) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed {
		return
	}
	a.failed = true
	a.future.Complete(nil, err)
}

// collector merges pooled contributions for one table straight into its
// columns of the batch's fused embedding matrix. Whole tables have one
// source; row-partitioned tables have one source per part, and the
// partial pools are summed (sum pooling distributes over row partitions,
// so the merge is exact). Only present rows arrive: an absent row pools
// to +0, which the pre-zeroed matrix already holds, and adding it would
// change nothing, since a pooled sum starts at +0 and so is never −0.
// When the last source delivers, the collector completes the batch's
// table and, for interaction features, the table's standalone pooled
// future.
type collector struct {
	rows, cols int
	sources    int
	asm        *embAssembler
	colOff     int
	// interact is the per-table pooled blob future; nil unless the table
	// joins the pairwise interaction.
	interact *nn.Future

	mu      sync.Mutex
	pending int
	failed  bool
}

func newCollector(sources, rows, cols int, asm *embAssembler, colOff int, interact *nn.Future) *collector {
	return &collector{
		rows: rows, cols: cols, sources: sources, asm: asm, colOff: colOff, interact: interact,
		pending: sources,
	}
}

// deliver merges one contribution; a nil entry with nil error means "no
// hits on this source" (skipped empty call) and contributes nothing.
func (c *collector) deliver(pe *PooledEntry, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		return
	}
	if err != nil {
		c.deliverErrLocked(err)
		return
	}
	if pe != nil {
		if int(pe.Rows) != c.rows || int(pe.Cols) != c.cols {
			c.deliverErrLocked(fmt.Errorf("core: partial pool shape %dx%d, want %dx%d", pe.Rows, pe.Cols, c.rows, c.cols))
			return
		}
		// Column ranges are disjoint across collectors, so writing
		// without the assembler's lock is safe; completion ordering is
		// serialized by tableDone.
		src := pe.Data
		for b := 0; b < c.rows; b++ {
			if !pe.present(b) {
				continue
			}
			dst := c.asm.emb.Row(b)[c.colOff : c.colOff+c.cols]
			if c.sources == 1 {
				copy(dst, src[:c.cols])
			} else {
				for j, v := range src[:c.cols] {
					dst[j] += v
				}
			}
			src = src[c.cols:]
		}
	}
	c.pending--
	if c.pending > 0 {
		return
	}
	if c.interact != nil {
		pooled := tensor.New(c.rows, c.cols)
		for b := 0; b < c.rows; b++ {
			copy(pooled.Row(b), c.asm.emb.Row(b)[c.colOff:c.colOff+c.cols])
		}
		c.interact.Complete(pooled, nil)
	}
	c.asm.tableDone()
}

func (c *collector) deliverErrLocked(err error) {
	c.failed = true
	c.asm.fail(err)
	if c.interact != nil {
		c.interact.Complete(nil, err)
	}
}

// groupEntry is one (table, part) a remote group covers.
type groupEntry struct {
	tableID   int
	partIndex int
	numParts  int
	rows      int // bucket count for zero-fill shapes
	dim       int
}

// rpcOp is the asynchronous RPC operator that replaces a net's sparse
// operators for one sparse shard (paper Section III-A2). Run serializes
// the shard's table groups and issues the call synchronously — as
// Caffe2's sequentially-scheduled async ops do — then hands response
// waiting, deserialization, and pooled-result delivery to a goroutine,
// giving the asynchronous fan-out the paper's Fig. 3 trace shows. The
// operator's own span is therefore dominated by request serialization,
// which the analyzer attributes to the RPC Ser/De category.
type rpcOp struct {
	name    string
	net     string
	service string
	client  rpc.Caller
	entries []groupEntry
	// collectors are shared across the net's rpc ops; keyed by table ID.
	collectors map[int]*collector
	rec        *trace.Recorder
	ctx        trace.Context
	batchItems int
	// hashedNames maps table ID to its hashed-bags blob name.
	hashedNames []string
	// calls/outNs are the engine's sparse-RPC metric handles (nil no-ops
	// without a registry).
	calls *obs.Counter
	outNs *obs.Histogram
}

// Name implements nn.Op.
func (o *rpcOp) Name() string { return o.name }

// Kind implements nn.Op.
func (o *rpcOp) Kind() nn.OpKind { return nn.KindRPC }

// Run implements nn.Op. It gathers this shard's bags from the workspace
// synchronously (cheap slice bookkeeping), then does serialization,
// network, and merge work asynchronously.
func (o *rpcOp) Run(ws *nn.Workspace) error {
	type entryBags struct {
		e    groupEntry
		bags []embedding.Bag
	}
	work := make([]entryBags, 0, len(o.entries))
	anyHits := false
	for _, e := range o.entries {
		bags, err := ws.Bags(o.hashedNames[e.tableID])
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		if e.numParts > 1 {
			bags = localizeBags(bags, e.partIndex, e.numParts)
		}
		if embedding.TotalLookups(bags) > 0 {
			anyHits = true
		}
		work = append(work, entryBags{e: e, bags: bags})
	}

	if !anyHits {
		// No lookups route to this shard (e.g. DRM3's partitioned user
		// table: only one part matches the request's user). Skip the call
		// entirely — the paper's "only two shards would be accessed" —
		// and satisfy collectors with zero contributions.
		for _, wk := range work {
			o.collectors[wk.e.tableID].deliver(nil, nil)
		}
		return nil
	}

	// Serialize on the scheduling thread (counted in this op's span,
	// which the analyzer books as RPC Ser/De), then issue.
	sreq := &SparseRequest{Net: o.net}
	for _, wk := range work {
		sreq.Entries = append(sreq.Entries, SparseEntry{
			TableID:   int32(wk.e.tableID),
			PartIndex: int32(wk.e.partIndex),
			NumParts:  int32(wk.e.numParts),
			Bags:      wk.bags,
		})
	}
	body := EncodeSparseRequest(sreq)
	callID := o.rec.NextID()
	issue := o.rec.Now()
	call := o.client.Go(&rpc.Request{
		Method: "sparse.run", TraceID: o.ctx.TraceID, CallID: callID, Body: body,
	})

	o.calls.Inc()
	go func() {
		<-call.Done
		outstanding := o.rec.Now().Sub(issue)
		o.outNs.Observe(int64(outstanding))
		o.rec.Record(trace.Span{
			TraceID: o.ctx.TraceID, CallID: callID, Layer: trace.LayerRPCCall,
			Net: o.net, Name: o.name, Start: issue, Dur: outstanding,
		})
		if call.Err != nil {
			err := fmt.Errorf("core: %s → %s: %w", o.name, o.service, call.Err)
			for _, wk := range work {
				o.collectors[wk.e.tableID].deliver(nil, err)
			}
			return
		}

		// Deserialize (RPC Ser/De at the main shard).
		decStart := o.rec.Now()
		resp, err := DecodeSparseResponse(call.Resp.Body)
		o.rec.Record(trace.Span{
			TraceID: o.ctx.TraceID, CallID: callID, Layer: trace.LayerSerDe, Net: o.net,
			Name: o.name + "/decode", Start: decStart, Dur: o.rec.Now().Sub(decStart),
		})
		if err == nil && len(resp.Entries) != len(work) {
			err = fmt.Errorf("core: %s returned %d entries for %d requested", o.service, len(resp.Entries), len(work))
		}
		if err != nil {
			for _, wk := range work {
				o.collectors[wk.e.tableID].deliver(nil, err)
			}
			return
		}
		for i := range resp.Entries {
			pe, e := &resp.Entries[i], work[i].e
			if int(pe.TableID) != e.tableID || int(pe.Rows) != o.batchItems || int(pe.Cols) != e.dim {
				o.collectors[e.tableID].deliver(nil, fmt.Errorf(
					"core: %s entry %d mismatched (table %d rows %d cols %d; want %d/%d/%d)",
					o.service, i, pe.TableID, pe.Rows, pe.Cols, e.tableID, o.batchItems, e.dim))
				continue
			}
			o.collectors[e.tableID].deliver(&resp.Entries[i], nil)
		}
	}()
	return nil
}

// localizeBags filters bag indices to one modulus partition and rebases
// them to the partition's local row space.
func localizeBags(bags []embedding.Bag, part, numParts int) []embedding.Bag {
	out := make([]embedding.Bag, len(bags))
	for b, bag := range bags {
		for _, idx := range bag.Indices {
			if int(idx)%numParts == part {
				out[b].Indices = append(out[b].Indices, idx/int32(numParts))
			}
		}
	}
	return out
}

// waitOp blocks on the net's asynchronous pooled results. The engine
// inserts it between the RPC fan-out and the first dense consumer so the
// wait time lands in a dedicated KindWait span instead of silently
// inflating the consumer operator's span — the analyzer attributes the
// wait through the LayerRPCCall outstanding spans (the paper's embedded
// portion) and must not double-count it as operator compute.
type waitOp struct {
	name  string
	blobs []string
}

// Name implements nn.Op.
func (o *waitOp) Name() string { return o.name }

// Kind implements nn.Op.
func (o *waitOp) Kind() nn.OpKind { return nn.KindWait }

// Run implements nn.Op.
func (o *waitOp) Run(ws *nn.Workspace) error {
	for _, b := range o.blobs {
		if _, err := ws.WaitBlob(b); err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
	}
	return nil
}

// burnFor spins the CPU for d; used to model platform compute scaling.
func burnFor(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d) //lint:allow determinism busy-wait models a slower platform; burns wall time, returns nothing
	for time.Now().Before(end) {
	}
}
