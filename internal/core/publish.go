package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// Publisher streams versioned model deltas to a serving deployment — the
// online continuation of the paper's publishing flow (Section III-A1:
// parameters "serialized from parameter servers to the respective
// inference shard"). Embedding row deltas route through the current
// sharding plan to every endpoint of every affected shard, one
// clone-staged sparse.stage.* session per endpoint; dense-weight swaps
// go to the co-located engine. Delta rows travel as fp32 and are
// re-encoded per-row into each table's cold-tier precision — row-wise
// quantization is independent per row, so a republished row is
// bit-identical to the same row in a full export.
type Publisher struct {
	// Engine is the main shard's engine: its live plan routes deltas and
	// its dense parameters are swapped in-process.
	Engine *Engine
	// Shards maps 1-based shard numbers to every endpoint that must
	// receive deltas (every replica store's server). Endpoints must be
	// plain control-plane connections, never hedged: hedging a
	// stage.commit would re-issue it against a store that already
	// consumed the version.
	Shards map[int][]ShardEndpoint
	// Rec allocates call IDs for the control-plane RPCs.
	Rec *trace.Recorder
	// Obs, when non-nil, receives publish gauges: publish.version (high
	// water), publish.count, publish.rows, publish.bytes.
	Obs *obs.Registry
}

// TableDelta carries fresh fp32 values for a set of logical rows of one
// embedding table.
type TableDelta struct {
	TableID int
	// Rows lists logical row indices (whole-table coordinates; the
	// publisher maps them onto row partitions). Data holds len(Rows)×dim
	// values in the same order.
	Rows []int32
	Data []float32
}

// DeltaSet is one atomic publish: embedding row deltas plus an optional
// dense-parameter swap, all activating at Version.
type DeltaSet struct {
	Version uint64
	Tables  []TableDelta
	// Dense, when non-nil, replaces the engine's dense-layer parameters
	// (shape-checked) after the embedding deltas commit.
	Dense []model.NetParams
}

// PublishEvent is one endpoint's slice of a publish — the freshness
// timeline, mirroring the migration MoveEvent style.
type PublishEvent struct {
	Version  uint64
	Shard    int
	Service  string
	Addr     string
	Tables   int
	RowsSent int
	Bytes    int64
	Epoch    uint64
	Duration time.Duration
}

// PublishReport summarizes one Publish call.
type PublishReport struct {
	Version  uint64
	Events   []PublishEvent
	RowsSent int
	Bytes    int64
	// DenseSwapped reports whether the delta set replaced dense weights.
	DenseSwapped bool
	Duration     time.Duration
}

// String renders the report for logs.
func (r *PublishReport) String() string {
	dense := ""
	if r.DenseSwapped {
		dense = " + dense swap"
	}
	return fmt.Sprintf("publish v%d: %d endpoints, %d rows, %.1f KiB%s in %v",
		r.Version, len(r.Events), r.RowsSent, float64(r.Bytes)/1024, dense,
		r.Duration.Round(time.Millisecond))
}

// deltaUnit is one placement unit's share of a table delta: the local
// staging rows it must overwrite, paired with offsets into the delta's
// fp32 payload.
type deltaUnit struct {
	tableID, partIndex, numParts int
	localRows                    []int32 // sorted local row indices
	srcRows                      []int32 // delta payload row offsets, aligned with localRows
	dim                          int
	data                         []float32 // the delta's full payload
}

// planUnitsFor maps each table delta onto the plan's placement units,
// returning per-shard work lists. Modulus partitioning puts logical row
// r at (part r%numParts, local row r/numParts) — the same mapping
// embedding.PartitionRows uses.
func planUnitsFor(plan *sharding.Plan, deltas []TableDelta) (map[int][]*deltaUnit, error) {
	if !plan.IsDistributed() {
		return nil, fmt.Errorf("core: publish: singular plans hold no sparse shards")
	}
	type placement struct {
		shard, partIndex, numParts int
	}
	where := make(map[int][]placement)
	for si := range plan.Shards {
		a := &plan.Shards[si]
		for _, id := range a.Tables {
			where[id] = append(where[id], placement{shard: a.Shard, partIndex: 0, numParts: 1})
		}
		for _, pr := range a.Parts {
			where[pr.TableID] = append(where[pr.TableID], placement{shard: a.Shard, partIndex: pr.PartIndex, numParts: pr.NumParts})
		}
	}
	out := make(map[int][]*deltaUnit)
	for di := range deltas {
		d := &deltas[di]
		if len(d.Rows) == 0 {
			continue
		}
		if len(d.Data)%len(d.Rows) != 0 {
			return nil, fmt.Errorf("core: publish: table %d delta has %d values for %d rows", d.TableID, len(d.Data), len(d.Rows))
		}
		dim := len(d.Data) / len(d.Rows)
		places, ok := where[d.TableID]
		if !ok {
			return nil, fmt.Errorf("core: publish: table %d is not placed by the current plan", d.TableID)
		}
		for _, pl := range places {
			u := &deltaUnit{
				tableID: d.TableID, partIndex: pl.partIndex, numParts: pl.numParts,
				dim: dim, data: d.Data,
			}
			for i, r := range d.Rows {
				if pl.numParts > 1 && int(r)%pl.numParts != pl.partIndex {
					continue
				}
				u.localRows = append(u.localRows, r/int32(pl.numParts))
				u.srcRows = append(u.srcRows, int32(i))
			}
			if len(u.localRows) == 0 {
				continue
			}
			sort.Sort(byLocalRow{u})
			out[pl.shard] = append(out[pl.shard], u)
		}
	}
	for _, units := range out {
		sort.Slice(units, func(i, j int) bool {
			if units[i].tableID != units[j].tableID {
				return units[i].tableID < units[j].tableID
			}
			return units[i].partIndex < units[j].partIndex
		})
	}
	return out, nil
}

// byLocalRow co-sorts a unit's local rows and payload offsets.
type byLocalRow struct{ u *deltaUnit }

func (s byLocalRow) Len() int { return len(s.u.localRows) }
func (s byLocalRow) Less(i, j int) bool {
	return s.u.localRows[i] < s.u.localRows[j]
}
func (s byLocalRow) Swap(i, j int) {
	s.u.localRows[i], s.u.localRows[j] = s.u.localRows[j], s.u.localRows[i]
	s.u.srcRows[i], s.u.srcRows[j] = s.u.srcRows[j], s.u.srcRows[i]
}

// encodeDeltaRows re-encodes a contiguous run of fp32 rows into a
// table's cold-tier wire encoding. Row-wise codecs are independent per
// row, so the bytes match a full-table encode of the same values.
func encodeDeltaRows(enc int32, rows []float32, n, dim int) (data []float32, raw []byte, err error) {
	switch enc {
	case TierEncFP32:
		return rows, nil, nil
	case TierEncFP16:
		return nil, quant.EncodeFP16Rows(rows, n, dim).AppendRowRange(nil, 0, n), nil
	case TierEncInt8:
		return nil, quant.QuantizeRows(rows, n, dim, quant.Bits8).AppendRowRange(nil, 0, n), nil
	case TierEncInt4:
		return nil, quant.QuantizeRows(rows, n, dim, quant.Bits4).AppendRowRange(nil, 0, n), nil
	}
	return nil, nil, fmt.Errorf("unknown encoding %d", enc)
}

// Publish streams one delta set to every endpoint of every affected
// shard, committing per endpoint, then swaps dense weights. On a stream
// error the failed endpoint's staging is aborted (best effort) and the
// error returned; endpoints already committed stay fresh — the publisher
// retries the version against the rest, and commit is idempotent in
// effect because republished rows are value-identical.
func (p *Publisher) Publish(ds *DeltaSet) (*PublishReport, error) {
	start := time.Now() //lint:allow determinism publish wall time is operator telemetry, not model input
	report := &PublishReport{Version: ds.Version}
	byShard, err := p.unitsForCurrentPlan(ds)
	if err != nil {
		return nil, err
	}
	shards := make([]int, 0, len(byShard))
	for shard := range byShard {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		eps := p.Shards[shard]
		if len(eps) == 0 {
			return nil, fmt.Errorf("core: publish: no endpoints for shard %d", shard)
		}
		for _, ep := range eps {
			ev, err := p.publishToEndpoint(ep, shard, ds.Version, byShard[shard])
			if err != nil {
				return nil, err
			}
			report.Events = append(report.Events, *ev)
			report.RowsSent += ev.RowsSent
			report.Bytes += ev.Bytes
		}
	}
	if ds.Dense != nil {
		if err := p.Engine.SwapDense(ds.Dense); err != nil {
			return nil, err
		}
		report.DenseSwapped = true
	}
	report.Duration = time.Since(start) //lint:allow determinism report duration is operator telemetry
	if p.Obs != nil {
		p.Obs.Gauge("publish.version").SetMax(int64(ds.Version))
		p.Obs.Counter("publish.count").Inc()
		p.Obs.Counter("publish.rows").Add(int64(report.RowsSent))
		p.Obs.Counter("publish.bytes").Add(report.Bytes)
	}
	return report, nil
}

// unitsForCurrentPlan routes the delta set through the engine's live
// plan. Dense-only delta sets produce an empty routing.
func (p *Publisher) unitsForCurrentPlan(ds *DeltaSet) (map[int][]*deltaUnit, error) {
	if len(ds.Tables) == 0 {
		return nil, nil
	}
	return planUnitsFor(p.Engine.Plan(), ds.Tables)
}

// publishToEndpoint streams every unit's delta rows into one stage
// session at the endpoint and commits it at the version.
func (p *Publisher) publishToEndpoint(ep ShardEndpoint, shard int, version uint64, units []*deltaUnit) (*PublishEvent, error) {
	evStart := time.Now() //lint:allow determinism event duration is freshness-timeline telemetry
	ev := &PublishEvent{Version: version, Shard: shard, Service: ep.Service, Addr: ep.Addr}
	sink := &remoteStage{ep: ep, rec: p.Rec}
	ack, err := runStage(sink, version, func() error {
		for _, u := range units {
			if err := p.stageUnit(sink, u, ev); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: publish: %w", err)
	}
	ev.Epoch = ack.Epoch
	ev.Duration = time.Since(evStart) //lint:allow determinism event duration is freshness-timeline telemetry
	return ev, nil
}

// stageUnit clones one unit's table into the session and overwrites its
// delta rows, sent as runs of consecutive local rows re-encoded into the
// endpoint's cold-tier encoding.
func (p *Publisher) stageUnit(sink *remoteStage, u *deltaUnit, ev *PublishEvent) error {
	tid, part := int32(u.tableID), int32(u.partIndex)
	// Probe the endpoint's actual shape and encoding: replicas may serve
	// rebuilt stores, so trust each endpoint's own report.
	shape, err := readShard(p.Rec, sink.ep, &ReadRequest{TableID: tid, PartIndex: part})
	if err != nil {
		return err
	}
	if int(shape.Dim) != u.dim {
		return fmt.Errorf("table %d part %d dim %d at %s, delta has %d",
			u.tableID, u.partIndex, shape.Dim, sink.ep.Service, u.dim)
	}
	if last := u.localRows[len(u.localRows)-1]; last >= shape.Rows {
		return fmt.Errorf("table %d part %d row %d outside %d rows at %s",
			u.tableID, u.partIndex, last, shape.Rows, sink.ep.Service)
	}
	if err := sink.begin(&StageBegin{
		TableID: tid, PartIndex: part, Rows: shape.Rows, Dim: shape.Dim, Enc: shape.Enc, Clone: true,
	}); err != nil {
		return err
	}
	for i := 0; i < len(u.localRows); {
		// Extend the run while local rows stay consecutive.
		j := i + 1
		for j < len(u.localRows) && j-i < stageChunkRows && u.localRows[j] == u.localRows[j-1]+1 {
			j++
		}
		n := j - i
		buf := make([]float32, n*u.dim)
		for k := 0; k < n; k++ {
			src := int(u.srcRows[i+k]) * u.dim
			copy(buf[k*u.dim:(k+1)*u.dim], u.data[src:src+u.dim])
		}
		data, raw, err := encodeDeltaRows(shape.Enc, buf, n, u.dim)
		if err != nil {
			return err
		}
		if err := sink.rows(&StageRows{
			TableID: tid, PartIndex: part, RowStart: u.localRows[i],
			Dim: int32(u.dim), Enc: shape.Enc, Data: data, Raw: raw,
		}); err != nil {
			return err
		}
		ev.RowsSent += n
		ev.Bytes += int64(4*len(data) + len(raw))
		i = j
	}
	ev.Tables++
	return nil
}
