package core

import (
	"fmt"
	"sort"

	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/sharding"
)

// Tiered embedding storage inside the sparse serving path: each shard can
// keep a bounded hot-row cache in front of a quantized cold tier. The
// capacity planner (sharding.PlanTiers) decides per-table precision; the
// shard-side controller here owns the cache byte budget, apportioning it
// across the shard's tables by their *measured* load share — the same
// LoadSummary accounting the online rebalancer plans from — and
// re-apportioning whenever the table set changes (install, migration
// commit, forward, release).
//
// Coherence rules under live migration: a hot-row cache belongs to one
// table *copy* and dies with it. A table committed from migration staging
// starts with a cold cache (nothing stale can survive the transfer); a
// source that releases its copy drops the cache with it; the double-read
// grace window keeps serving from the retained copy's cache, which stays
// valid because table storage is immutable. Encoded (fp16/int8) tables
// stream their cold-tier bytes verbatim through sparse.migrate.*, so a
// moved table is bit-identical to the source's — the PR-2 double-read
// identity guarantee holds with tiering enabled.

// TierConfig enables tiered storage on a sparse shard.
type TierConfig struct {
	// CacheMB is the shard-wide hot-row cache byte budget (0 disables
	// caching; cold-tier encoding still applies).
	CacheMB float64
	// Plan assigns per-table cold precisions; nil keeps every table fp32
	// (cache-only tiering).
	Plan *sharding.TierPlan
}

// Cold-tier encodings on the staging wire (StageBegin.Enc et al).
const (
	TierEncFP32 int32 = 0
	TierEncFP16 int32 = 1
	TierEncInt8 int32 = 2
	TierEncInt4 int32 = 3
)

// coldOf unwraps a tiered table to its cold-tier backend.
func coldOf(t embedding.Table) embedding.Table {
	if tt, ok := t.(*embedding.TieredTable); ok {
		return tt.Cold()
	}
	return t
}

// tableEnc classifies a table's cold-tier encoding for the wire.
func tableEnc(t embedding.Table) (int32, error) {
	switch cold := coldOf(t).(type) {
	case *embedding.Dense:
		return TierEncFP32, nil
	case *embedding.FP16:
		return TierEncFP16, nil
	case *embedding.Quantized:
		if cold.Encoding().Bits == quant.Bits4 {
			return TierEncInt4, nil
		}
		return TierEncInt8, nil
	default:
		return 0, fmt.Errorf("core: cannot stream rows of %T", t)
	}
}

// tierEncStride returns the wire bytes per row of an encoded (non-fp32)
// tier at the given dim.
func tierEncStride(enc, dim int32) (int, error) {
	switch enc {
	case TierEncFP16:
		return 2 * int(dim), nil
	case TierEncInt8:
		return 4 + int(dim), nil
	case TierEncInt4:
		return 4 + (int(dim)+1)/2, nil
	}
	return 0, fmt.Errorf("core: no raw row stride for encoding %d", enc)
}

// stagedTable is staging storage in a table's native cold-tier
// encoding: rows land as verbatim encoded bytes, so the committed table
// is bit-identical to the source's.
type stagedTable struct {
	enc int32
	// clone marks staging that started as a copy of the held table (a
	// freshness delta) rather than empty (a migration or rebuild).
	clone bool
	dense *embedding.Dense
	fp16  *quant.FP16Rows
	q     *quant.RowQuantized
}

func newStaged(enc, rows, dim int32) (*stagedTable, error) {
	st := &stagedTable{enc: enc}
	switch enc {
	case TierEncFP32:
		st.dense = embedding.NewDense(int(rows), int(dim))
	case TierEncFP16:
		st.fp16 = quant.NewFP16Rows(int(rows), int(dim))
	case TierEncInt8:
		st.q = quant.NewRowQuantizedEmpty(int(rows), int(dim), quant.Bits8)
	case TierEncInt4:
		st.q = quant.NewRowQuantizedEmpty(int(rows), int(dim), quant.Bits4)
	default:
		return nil, fmt.Errorf("core: stage begin with unknown encoding %d", enc)
	}
	return st, nil
}

func (st *stagedTable) dim() int {
	switch st.enc {
	case TierEncFP32:
		return st.dense.Dim()
	case TierEncFP16:
		return st.fp16.Cols
	default:
		return st.q.Cols
	}
}

// writeF32 lands an fp32 chunk (the original protocol's payload).
func (st *stagedTable) writeF32(lo int, data []float32) error {
	if st.enc != TierEncFP32 {
		return fmt.Errorf("core: fp32 chunk for encoding %d staging", st.enc)
	}
	d := st.dense.Dim()
	rows := len(data) / d
	if lo < 0 || lo+rows > st.dense.NumRows() {
		return fmt.Errorf("core: stage rows [%d, %d) of %d", lo, lo+rows, st.dense.NumRows())
	}
	copy(st.dense.Data[lo*d:(lo+rows)*d], data)
	return nil
}

// writeRaw lands an encoded chunk, returning the rows written.
func (st *stagedTable) writeRaw(lo int, raw []byte) (int, error) {
	switch st.enc {
	case TierEncFP16:
		return st.fp16.SetRowRange(lo, raw)
	case TierEncInt8, TierEncInt4:
		return st.q.SetRowRange(lo, raw)
	}
	return 0, fmt.Errorf("core: raw chunk for encoding %d staging", st.enc)
}

// table materializes the staged storage as a serving table.
func (st *stagedTable) table() (embedding.Table, error) {
	switch st.enc {
	case TierEncFP32:
		return st.dense, nil
	case TierEncFP16:
		return embedding.FP16FromEncoding(st.fp16), nil
	default:
		return embedding.QuantizedFromEncoding(st.q.Rows, st.q.Cols, int(st.q.Bits), st.q.Scales, st.q.Biases, st.q.Packed)
	}
}

// SetTier enables tiered storage, re-wrapping any already-installed
// tables (drmserve's shard-file path imports first, tiers second) and
// apportioning the cache budget.
func (s *SparseShard) SetTier(cfg *TierConfig) {
	s.mu.Lock()
	s.tier = cfg
	for key, tab := range s.tables {
		s.tables[key] = s.tierWrap(key.id, tab)
	}
	s.mu.Unlock()
	s.retier()
}

// tierWrap applies the shard's tier config to a table about to be
// installed: encode a dense cold tier to the planned precision, then
// front it with a (initially empty) hot-row cache when a budget exists.
// Already-encoded tables (migration staging output) keep their encoding.
func (s *SparseShard) tierWrap(id int, t embedding.Table) embedding.Table {
	if s.tier == nil {
		return t
	}
	cold := coldOf(t)
	if d, ok := cold.(*embedding.Dense); ok {
		switch s.tier.Plan.Precision(id) {
		case sharding.PrecisionFP16:
			cold = d.ToFP16()
		case sharding.PrecisionInt8:
			cold = d.Quantize(quant.Bits8)
		}
	}
	if s.tier.CacheMB <= 0 {
		return cold
	}
	return embedding.NewTiered(cold, 0)
}

// retier re-apportions the shard's cache byte budget across its tiered
// tables by measured load share (LoadSummary weight: service seconds, or
// lookups when timing is absent), falling back to cold-byte share before
// any load is observed. Called whenever the table set changes; resizing
// caches never changes results (see embedding.TieredTable), only where
// the byte budget does the most good.
func (s *SparseShard) retier() {
	s.mu.RLock()
	tier := s.tier
	s.mu.RUnlock()
	if tier == nil || tier.CacheMB <= 0 {
		return
	}
	// Apportion from the live accumulator merged with the last collected
	// window: a rebalance pass resets the accumulator (CollectLoad(true))
	// right before the migration installs that trigger retiering, and
	// budgeting from the near-empty residue would shrink exactly the hot
	// caches the measured window had earned.
	s.loadMu.Lock()
	load := s.load.Clone()
	load.Merge(s.lastLoad)
	s.loadMu.Unlock()

	type cacheTab struct {
		key    sharding.TableLoadKey
		tt     *embedding.TieredTable
		weight float64
		bytes  float64
	}
	var tabs []cacheTab
	s.mu.RLock()
	for key, tab := range s.tables {
		tt, ok := tab.(*embedding.TieredTable)
		if !ok {
			continue
		}
		lk := key.loadKey()
		tabs = append(tabs, cacheTab{key: lk, tt: tt, weight: load.Weight(lk), bytes: float64(tt.Cold().Bytes())})
	}
	s.mu.RUnlock()
	// The budget split below is float arithmetic: apportion in table-key
	// order so every run of the same table set computes identical sizes
	// regardless of map iteration order.
	sort.Slice(tabs, func(i, j int) bool {
		if tabs[i].key.TableID != tabs[j].key.TableID {
			return tabs[i].key.TableID < tabs[j].key.TableID
		}
		return tabs[i].key.PartIndex < tabs[j].key.PartIndex
	})
	var total, totalBytes float64
	for _, ct := range tabs {
		total += ct.weight
		totalBytes += ct.bytes
	}
	if len(tabs) == 0 || totalBytes <= 0 {
		return
	}
	if total <= 0 {
		// No load observed yet: split by cold-tier bytes.
		for i := range tabs {
			tabs[i].weight = tabs[i].bytes
		}
		total = totalBytes
	} else {
		// Bytes-proportional floor on top of measured load: a table that
		// just migrated in has zero measured load *here* — it moved
		// because it was hot at the source — and a pure load split would
		// leave it cacheless until the next table-set change. The floor
		// seeds every table with a slice of ~10% of the budget; the next
		// load window earns it a real share.
		const floorFrac = 0.1
		for i := range tabs {
			tabs[i].weight += floorFrac * total * tabs[i].bytes / totalBytes
		}
		total *= 1 + floorFrac
	}
	budget := tier.CacheMB * float64(1<<20)
	for _, ct := range tabs {
		rowBytes := float64(ct.tt.Dim() * 4)
		rows := int(budget * ct.weight / total / rowBytes)
		if n := ct.tt.NumRows(); rows > n {
			rows = n
		}
		ct.tt.SetCapacity(rows)
	}
}

// TierStats aggregates a shard's tiered-storage behavior.
type TierStats struct {
	// Tables counts installed tables/parts; FP32/FP16/Int8 split them by
	// cold-tier encoding (Int8 includes int4).
	Tables, FP32, FP16, Int8 int
	// ColdBytes is the encoded cold-tier footprint; CacheBytes the live
	// cached-row bytes; CacheCapBytes the apportioned budget ceiling.
	ColdBytes, CacheBytes, CacheCapBytes int64
	// Hits/Misses/Admits sum the hot-row caches' counters.
	Hits, Misses, Admits int64
}

// HitRate returns the aggregate cache hit rate (0 when unused).
func (ts TierStats) HitRate() float64 {
	if ts.Hits+ts.Misses == 0 {
		return 0
	}
	return float64(ts.Hits) / float64(ts.Hits+ts.Misses)
}

// TierSnapshot reports the shard's current tiered-storage state.
func (s *SparseShard) TierSnapshot() TierStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out TierStats
	for _, tab := range s.tables {
		out.Tables++
		cold := coldOf(tab)
		switch cold.(type) {
		case *embedding.FP16:
			out.FP16++
		case *embedding.Quantized:
			out.Int8++
		default:
			out.FP32++
		}
		out.ColdBytes += cold.Bytes()
		if tt, ok := tab.(*embedding.TieredTable); ok {
			st := tt.Stats()
			out.CacheBytes += int64(st.CachedRows) * int64(tt.Dim()) * 4
			out.CacheCapBytes += int64(st.Capacity) * int64(tt.Dim()) * 4
			out.Hits += st.Hits
			out.Misses += st.Misses
			out.Admits += st.Admits
		}
	}
	return out
}
