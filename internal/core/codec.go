// Package core implements the distributed inference runtime: the main
// shard engine that executes dense layers and replaces sparse operators
// with asynchronous RPC operators, the sparse shard service that serves
// embedding lookups, and the binary payload codecs between them.
//
// This is the Go analogue of the paper's customized Thrift + Caffe2 stack
// (Section III-C): the engine compiles a model.Model plus a sharding.Plan
// into per-net programs; requests are split into batches executed in
// parallel; each batch's RPC operators fan out asynchronously to the
// sparse shards holding that net's tables and the pooled results are
// merged (for row-partitioned tables, partial pools are summed — exact,
// because sum pooling distributes over row partitions).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// SparseEntry identifies one table (or one row-partition of a table) in a
// sparse RPC, together with the bags to pool. PartIndex/NumParts are
// (0, 1) for whole tables; for partitions, bag indices are already
// localized (logical/NumParts) by the caller.
type SparseEntry struct {
	TableID   int32
	PartIndex int32
	NumParts  int32
	Bags      []embedding.Bag
}

// SparseRequest asks one sparse shard to pool a set of entries belonging
// to one net.
type SparseRequest struct {
	Net     string
	Entries []SparseEntry
}

// PooledEntry is one pooled (or partially pooled) result: a Rows×Cols
// (bags×dim) block of which only the rows of non-empty bags travel.
// Present is the row-presence bitmap (bit b%8 of byte b/8 set ⇔ bag b is
// non-empty; nil marks every row present) and Data holds the present
// rows in bag order. An absent row pools to +0 by SLS's definition, so a
// receiver leaves its pre-zeroed row untouched.
type PooledEntry struct {
	TableID   int32
	PartIndex int32
	Rows      int32
	Cols      int32
	Present   []byte
	Data      []float32
}

// present reports whether row b of the entry travels in Data.
func (e *PooledEntry) present(b int) bool {
	return e.Present == nil || e.Present[b>>3]&(1<<(b&7)) != 0
}

// bitmapLen is the byte length of a row-presence bitmap over rows bags.
func bitmapLen(rows int) int { return (rows + 7) / 8 }

// SparseResponse carries pooled results for every requested entry, in
// request order.
type SparseResponse struct {
	Entries []PooledEntry
}

// RankingRequest is the wire form of a workload request hitting the main
// shard: per-net dense features plus per-table raw sparse ID bags.
type RankingRequest struct {
	ID    uint64
	Items int32
	// Dense holds one matrix per net, keyed by net name.
	Dense map[string]*tensor.Matrix
	// Bags holds raw sparse IDs per table ID.
	Bags map[int32][]embedding.Bag
}

// RankingResponse carries one score per item.
type RankingResponse struct {
	Scores []float32
}

var (
	errTruncated = errors.New("core: truncated payload")
	errTrailing  = errors.New("core: trailing bytes after payload")
)

// buffer is a minimal append-only encoder.
type buffer struct{ b []byte }

func (w *buffer) u32(v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	w.b = append(w.b, tmp[:]...)
}
func (w *buffer) u64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	w.b = append(w.b, tmp[:]...)
}
func (w *buffer) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *buffer) f32s(xs []float32) {
	w.u32(uint32(len(xs)))
	w.rawF32s(xs)
}

// rawF32s appends xs without a length prefix.
func (w *buffer) rawF32s(xs []float32) {
	off := len(w.b)
	w.b = append(w.b, make([]byte, 4*len(xs))...)
	for i, x := range xs {
		binary.LittleEndian.PutUint32(w.b[off+4*i:], math.Float32bits(x))
	}
}
func (w *buffer) i32s(xs []int32) {
	w.u32(uint32(len(xs)))
	off := len(w.b)
	w.b = append(w.b, make([]byte, 4*len(xs))...)
	for i, x := range xs {
		binary.LittleEndian.PutUint32(w.b[off+4*i:], uint32(x))
	}
}
func (w *buffer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.b = append(w.b, b...)
}
func (w *buffer) bags(bags []embedding.Bag) {
	w.u32(uint32(len(bags)))
	for _, bag := range bags {
		w.i32s(bag.Indices)
	}
}

// bagsSize is the encoded length of bags.
func bagsSize(bags []embedding.Bag) int {
	n := 4 + 4*len(bags)
	for _, bag := range bags {
		n += 4 * len(bag.Indices)
	}
	return n
}

// reader is the matching decoder.
type reader struct{ b []byte }

func (r *reader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}
func (r *reader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}
func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil || uint32(len(r.b)) < n {
		return "", errTruncated
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}
func (r *reader) f32s() ([]float32, error) {
	n, err := r.u32()
	if err != nil || uint64(len(r.b)) < uint64(n)*4 {
		return nil, errTruncated
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.b[4*i:]))
	}
	r.b = r.b[4*n:]
	return out, nil
}
func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil || uint32(len(r.b)) < n {
		return nil, errTruncated
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out, nil
}

// count reads an element count and rejects one that the bytes left
// could not hold at min bytes per element, so a hostile count never
// sizes an allocation.
func (r *reader) count(min int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n) > uint64(len(r.b)/min) {
		return 0, errTruncated
	}
	return int(n), nil
}

// bags walks the bags' length prefixes first, then decodes every bag's
// indices into one flat slice.
func (r *reader) bags() ([]embedding.Bag, error) {
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	total, p := 0, r.b
	for i := 0; i < n; i++ {
		if len(p) < 4 {
			return nil, errTruncated
		}
		k := binary.LittleEndian.Uint32(p)
		if uint64(k) > uint64(len(p)-4)/4 {
			return nil, errTruncated
		}
		total += int(k)
		p = p[4+4*int(k):]
	}
	flat := make([]int32, total)
	out := make([]embedding.Bag, n)
	for i := range out {
		k := int(binary.LittleEndian.Uint32(r.b))
		r.b = r.b[4:]
		if k == 0 {
			continue
		}
		idx := flat[:k:k]
		flat = flat[k:]
		for j := range idx {
			idx[j] = int32(binary.LittleEndian.Uint32(r.b[4*j:]))
		}
		r.b = r.b[4*k:]
		out[i].Indices = idx
	}
	return out, nil
}

// pooled parses one pooled entry: its header, raw bitmap and raw row
// bytes. Rows is bounded by the bitmap bytes left and Cols × present
// rows by the payload bytes left before either sizes anything.
func (r *reader) pooled() (e PooledEntry, bitmap, rows []byte, err error) {
	var h [4]uint32
	for i := range h {
		if h[i], err = r.u32(); err != nil {
			return e, nil, nil, err
		}
	}
	if h[2] > math.MaxInt32 || h[3] > math.MaxInt32 {
		return e, nil, nil, fmt.Errorf("core: pooled shape %dx%d out of range", h[2], h[3])
	}
	nb := bitmapLen(int(h[2]))
	if len(r.b) < nb {
		return e, nil, nil, errTruncated
	}
	bitmap, r.b = r.b[:nb], r.b[nb:]
	if tail := h[2] % 8; tail != 0 && bitmap[nb-1]>>tail != 0 {
		return e, nil, nil, fmt.Errorf("core: pooled bitmap marks rows past %d", h[2])
	}
	present := 0
	for _, x := range bitmap {
		present += bits.OnesCount8(x)
	}
	if uint64(present)*uint64(h[3]) > uint64(len(r.b))/4 {
		return e, nil, nil, errTruncated
	}
	n := 4 * present * int(h[3])
	rows, r.b = r.b[:n], r.b[n:]
	e = PooledEntry{TableID: int32(h[0]), PartIndex: int32(h[1]), Rows: int32(h[2]), Cols: int32(h[3])}
	return e, bitmap, rows, nil
}

// EncodeSparseRequest serializes a sparse RPC request.
func EncodeSparseRequest(req *SparseRequest) []byte {
	size := 4 + len(req.Net) + 4
	for _, e := range req.Entries {
		size += 12 + bagsSize(e.Bags)
	}
	w := buffer{b: make([]byte, 0, size)}
	w.str(req.Net)
	w.u32(uint32(len(req.Entries)))
	for _, e := range req.Entries {
		w.u32(uint32(e.TableID))
		w.u32(uint32(e.PartIndex))
		w.u32(uint32(e.NumParts))
		w.bags(e.Bags)
	}
	return w.b
}

// DecodeSparseRequest parses a sparse RPC request.
func DecodeSparseRequest(b []byte) (*SparseRequest, error) {
	r := reader{b: b}
	net, err := r.str()
	if err != nil {
		return nil, fmt.Errorf("core: sparse request net: %w", err)
	}
	n, err := r.count(16)
	if err != nil {
		return nil, err
	}
	out := &SparseRequest{Net: net, Entries: make([]SparseEntry, n)}
	for i := range out.Entries {
		e := &out.Entries[i]
		var v uint32
		if v, err = r.u32(); err != nil {
			return nil, err
		}
		e.TableID = int32(v)
		if v, err = r.u32(); err != nil {
			return nil, err
		}
		e.PartIndex = int32(v)
		if v, err = r.u32(); err != nil {
			return nil, err
		}
		e.NumParts = int32(v)
		if e.Bags, err = r.bags(); err != nil {
			return nil, err
		}
	}
	if len(r.b) != 0 {
		return nil, errTrailing
	}
	return out, nil
}

// EncodeSparseResponse serializes pooled results: per entry its header,
// its row-presence bitmap and its present rows.
func EncodeSparseResponse(resp *SparseResponse) []byte {
	size := 4
	for i := range resp.Entries {
		e := &resp.Entries[i]
		size += 16 + bitmapLen(int(e.Rows)) + 4*len(e.Data)
	}
	w := buffer{b: make([]byte, 0, size)}
	w.u32(uint32(len(resp.Entries)))
	for i := range resp.Entries {
		e := &resp.Entries[i]
		w.u32(uint32(e.TableID))
		w.u32(uint32(e.PartIndex))
		w.u32(uint32(e.Rows))
		w.u32(uint32(e.Cols))
		if e.Present != nil {
			w.b = append(w.b, e.Present...)
		} else {
			rows := int(e.Rows)
			for ; rows >= 8; rows -= 8 {
				w.b = append(w.b, 0xff)
			}
			if rows > 0 {
				w.b = append(w.b, byte(1)<<rows-1)
			}
		}
		w.rawF32s(e.Data)
	}
	return w.b
}

// DecodeSparseResponse parses pooled results, keeping every entry
// compact: Data holds only the present rows.
func DecodeSparseResponse(b []byte) (*SparseResponse, error) {
	r := reader{b: b}
	n, err := r.count(16)
	if err != nil {
		return nil, err
	}
	// A validating pass sizes one flat bitmap and one flat row buffer
	// for every entry; the second pass fills them.
	entries := r
	bitmapBytes, values := 0, 0
	for i := 0; i < n; i++ {
		_, bitmap, rows, err := r.pooled()
		if err != nil {
			return nil, fmt.Errorf("core: pooled entry %d: %w", i, err)
		}
		bitmapBytes += len(bitmap)
		values += len(rows) / 4
	}
	if len(r.b) != 0 {
		return nil, errTrailing
	}
	bitmaps := make([]byte, bitmapBytes)
	data := make([]float32, values)
	out := &SparseResponse{Entries: make([]PooledEntry, n)}
	r = entries
	for i := range out.Entries {
		e, bitmap, rows, _ := r.pooled()
		e.Present, bitmaps = bitmaps[:len(bitmap):len(bitmap)], bitmaps[len(bitmap):]
		copy(e.Present, bitmap)
		k := len(rows) / 4
		e.Data, data = data[:k:k], data[k:]
		for j := range e.Data {
			e.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(rows[4*j:]))
		}
		out.Entries[i] = e
	}
	return out, nil
}

// EncodeRankingRequest serializes a ranking request.
func EncodeRankingRequest(req *RankingRequest) []byte {
	var w buffer
	w.u64(req.ID)
	w.u32(uint32(req.Items))
	w.u32(uint32(len(req.Dense)))
	for _, name := range sortedKeys(req.Dense) {
		m := req.Dense[name]
		w.str(name)
		w.u32(uint32(m.Rows))
		w.u32(uint32(m.Cols))
		w.f32s(m.Data)
	}
	w.u32(uint32(len(req.Bags)))
	for _, tid := range sortedBagKeys(req.Bags) {
		w.u32(uint32(tid))
		w.bags(req.Bags[tid])
	}
	return w.b
}

// DecodeRankingRequest parses a ranking request.
func DecodeRankingRequest(b []byte) (*RankingRequest, error) {
	r := reader{b: b}
	id, err := r.u64()
	if err != nil {
		return nil, err
	}
	items, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := &RankingRequest{ID: id, Items: int32(items), Dense: map[string]*tensor.Matrix{}, Bags: map[int32][]embedding.Bag{}}
	nd, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nd; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		rows, err := r.u32()
		if err != nil {
			return nil, err
		}
		cols, err := r.u32()
		if err != nil {
			return nil, err
		}
		data, err := r.f32s()
		if err != nil {
			return nil, err
		}
		if uint64(len(data)) != uint64(rows)*uint64(cols) {
			return nil, fmt.Errorf("core: dense %q has %d values for %dx%d", name, len(data), rows, cols)
		}
		out.Dense[name] = tensor.FromSlice(int(rows), int(cols), data)
	}
	nb, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nb; i++ {
		tid, err := r.u32()
		if err != nil {
			return nil, err
		}
		bags, err := r.bags()
		if err != nil {
			return nil, err
		}
		out.Bags[int32(tid)] = bags
	}
	if len(r.b) != 0 {
		return nil, errTrailing
	}
	return out, nil
}

// EncodeRankingResponse serializes scores.
func EncodeRankingResponse(resp *RankingResponse) []byte {
	var w buffer
	w.f32s(resp.Scores)
	return w.b
}

// DecodeRankingResponse parses scores.
func DecodeRankingResponse(b []byte) (*RankingResponse, error) {
	r := reader{b: b}
	scores, err := r.f32s()
	if err != nil {
		return nil, err
	}
	return &RankingResponse{Scores: scores}, nil
}

func sortedKeys(m map[string]*tensor.Matrix) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedBagKeys(m map[int32][]embedding.Bag) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
