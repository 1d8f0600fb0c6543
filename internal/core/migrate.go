package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// Migrator drives online resharding over the ordinary RPC channel: it
// collects measured load summaries from every sparse shard, asks the
// rebalancer for an incremental migration plan, streams each move's rows
// from source to destination while both keep serving, swaps the engine's
// routing, and finally installs forwards at the sources so requests
// compiled against the old plan stay correct. Because every step is a
// wire call, the same driver reshards an in-process cluster and a fleet
// of standalone drmserve processes.
type Migrator struct {
	// Engine is the main shard's engine, rerouted at cutover.
	Engine *Engine
	// Shards maps 1-based shard numbers to their primary endpoints.
	Shards map[int]ShardEndpoint
	// Rec allocates call ids and records LayerMigration spans.
	Rec *trace.Recorder
}

// ShardEndpoint addresses one sparse shard's primary server.
type ShardEndpoint struct {
	// Service is the registry name ("sparse3").
	Service string
	// Addr is the server's dialable address, handed to sources so they
	// can forward straggler lookups to destinations.
	Addr string
	// Caller issues control-plane RPCs to the shard.
	Caller rpc.Caller
}

// RebalanceReport summarizes one rebalance pass.
type RebalanceReport struct {
	// Load is the merged measured summary the plan was computed from.
	Load *sharding.LoadSummary
	// Plan is the migration decision, including Current and Target.
	Plan *sharding.MigrationPlan
	// BytesMoved is the row data streamed across shards.
	BytesMoved int64
	// Duration covers collection through final forward installation.
	Duration time.Duration
}

// Moved reports whether the pass migrated anything.
func (r *RebalanceReport) Moved() bool { return len(r.Plan.Moves) > 0 }

// String renders the report for logs.
func (r *RebalanceReport) String() string {
	if !r.Moved() {
		return fmt.Sprintf("rebalance: no-op (max shard load %.3g) in %v",
			r.Plan.MaxLoadBefore, r.Duration.Round(time.Millisecond))
	}
	return fmt.Sprintf("rebalance: %d moves, %.1f KiB streamed, max shard load %.3g -> %.3g, in %v",
		len(r.Plan.Moves), float64(r.BytesMoved)/1024,
		r.Plan.MaxLoadBefore, r.Plan.MaxLoadAfter, r.Duration.Round(time.Millisecond))
}

// CollectLoad fetches and merges every shard's load summary; reset
// clears the shards' accumulators so the next window starts fresh.
func (mg *Migrator) CollectLoad(reset bool) (*sharding.LoadSummary, error) {
	merged := sharding.NewLoadSummary()
	body := EncodeLoadRequest(&LoadRequest{Reset: reset})
	for _, shard := range sortedShardNums(mg.Shards) {
		out, err := callShard(mg.Rec, mg.Shards[shard], MethodSparseLoad, body)
		if err != nil {
			return nil, err
		}
		s, err := DecodeLoadSummary(out)
		if err != nil {
			return nil, fmt.Errorf("core: sparse%d load summary: %w", shard, err)
		}
		merged.Merge(s)
	}
	return merged, nil
}

// Rebalance runs one full observe→plan→migrate→cutover pass and reports
// what it did. A pass that plans no moves touches nothing.
func (mg *Migrator) Rebalance(opts sharding.RebalanceOptions) (*RebalanceReport, error) {
	start := time.Now() //lint:allow determinism rebalance wall time is operator telemetry, not planner input
	load, err := mg.CollectLoad(true)
	if err != nil {
		return nil, err
	}
	cur := mg.Engine.Plan()
	mp, err := sharding.Rebalance(mg.Engine.Config(), cur, load, opts)
	if err != nil {
		return nil, err
	}
	report := &RebalanceReport{Load: load, Plan: mp}
	if len(mp.Moves) == 0 {
		report.Duration = time.Since(start) //lint:allow determinism report duration is operator telemetry
		return report, nil
	}

	// Phase 1: stream every move's rows into destination staging while
	// both shards keep serving under the current plan. A failed move's
	// staging is aborted; committed moves stay (they are live tables the
	// next pass can plan around).
	for _, mv := range mp.Moves {
		n, err := mg.streamMove(mv)
		report.BytesMoved += n
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: cutover. The engine swaps routing first — new requests go
	// to the destinations, which are live as of commit. Then sources
	// install forwards (releasing their copies) so requests still
	// executing under the old program are answered by forwarding; the
	// window between commit and forward is covered by the source's
	// retained copy, which is byte-identical because storage is
	// immutable.
	if err := mg.Engine.Reroute(mp.Target); err != nil {
		return nil, err
	}
	for _, mv := range mp.Moves {
		src, dst := mg.Shards[mv.From], mg.Shards[mv.To]
		fwd := &MigrateForward{
			TableID: int32(mv.TableID), PartIndex: int32(mv.PartIndex),
			Service: dst.Service, Addr: dst.Addr, Release: true,
		}
		if _, err := callShard(mg.Rec, src, MethodMigrateForward, EncodeMigrateForward(fwd)); err != nil {
			return nil, err
		}
	}
	report.Duration = time.Since(start) //lint:allow determinism report duration is operator telemetry
	return report, nil
}

// streamMove copies one placement unit source→destination in its own
// stage session: probe the source's shape, copy the rows, commit.
// Returns bytes streamed.
func (mg *Migrator) streamMove(mv sharding.Move) (int64, error) {
	src, ok := mg.Shards[mv.From]
	if !ok {
		return 0, fmt.Errorf("core: move %v: no endpoint for source shard %d", mv, mv.From)
	}
	dst, ok := mg.Shards[mv.To]
	if !ok {
		return 0, fmt.Errorf("core: move %v: no endpoint for destination shard %d", mv, mv.To)
	}
	migStart := mg.Rec.Now()
	tid, part := int32(mv.TableID), int32(mv.PartIndex)
	// Partition row counts depend on the modulus split; the source knows.
	shape, err := readShard(mg.Rec, src, &ReadRequest{TableID: tid, PartIndex: part})
	if err != nil {
		return 0, err
	}
	var moved int64
	sink := &remoteStage{ep: dst, rec: mg.Rec}
	_, err = runStage(sink, 0, func() error {
		var err error
		moved, err = copyRows(mg.Rec, src, SnapshotEntry{
			TableID: tid, PartIndex: part, Rows: shape.Rows, Dim: shape.Dim, Enc: shape.Enc,
		}, sink)
		return err
	})
	if err != nil {
		return moved, fmt.Errorf("core: move %v: %w", mv, err)
	}
	mg.Rec.Record(trace.Span{
		Layer: trace.LayerMigration,
		Name:  fmt.Sprintf("migrate/move/t%d.%d/%s->%s", mv.TableID, mv.PartIndex, src.Service, dst.Service),
		Start: migStart, Dur: mg.Rec.Now().Sub(migStart),
	})
	return moved, nil
}

func sortedShardNums(m map[int]ShardEndpoint) []int {
	out := make([]int, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
