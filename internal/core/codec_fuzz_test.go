package core

import (
	"bytes"
	"testing"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// Round-trip fuzzers for the sparse.run and ranking codecs, which read
// request and response bodies straight off the wire: any byte string
// either fails to decode, or decodes to a message that re-encodes and
// decodes back to itself. Panics and allocations sized by a hostile
// count are the bugs these hunt.

func FuzzSparseRequestRoundTrip(f *testing.F) {
	f.Add(EncodeSparseRequest(&SparseRequest{Net: "net1", Entries: []SparseEntry{
		{TableID: 3, NumParts: 1, Bags: []embedding.Bag{{Indices: []int32{1, 2}}, {}}},
		{TableID: 9, PartIndex: 1, NumParts: 2, Bags: []embedding.Bag{{}, {}}},
	}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeSparseRequest(b)
		if err != nil {
			return
		}
		// Empty bags decode as nil and trailing bytes are rejected, so
		// the encoding is canonical.
		if again := EncodeSparseRequest(req); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, again)
		}
	})
}

func FuzzSparseResponseRoundTrip(f *testing.F) {
	f.Add(EncodeSparseResponse(&SparseResponse{Entries: []PooledEntry{
		{TableID: 1, Rows: 3, Cols: 2, Present: []byte{0b101}, Data: []float32{1, 2, 3, 4}},
		{TableID: 2, PartIndex: 1, Rows: 9, Cols: 4, Present: []byte{0, 0}},
	}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := DecodeSparseResponse(b)
		if err != nil {
			return
		}
		// Bitmaps and rows are copied verbatim and trailing bytes are
		// rejected, so the encoding is canonical.
		if again := EncodeSparseResponse(resp); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, again)
		}
	})
}

func FuzzRankingRequestRoundTrip(f *testing.F) {
	f.Add(EncodeRankingRequest(&RankingRequest{
		ID: 5, Items: 2,
		Dense: map[string]*tensor.Matrix{"net1": tensor.FromSlice(2, 1, []float32{1, -2})},
		Bags:  map[int32][]embedding.Bag{0: {{Indices: []int32{7}}, {}}},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRankingRequest(b)
		if err != nil {
			return
		}
		// Dense inputs are a map, so a body may name a net twice or out
		// of order: compare decoded messages, not bytes.
		again, err := DecodeRankingRequest(EncodeRankingRequest(req))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.ID != req.ID || again.Items != req.Items || len(again.Dense) != len(req.Dense) || len(again.Bags) != len(req.Bags) {
			t.Fatalf("round trip header: %+v -> %+v", req, again)
		}
		for name, m := range req.Dense {
			g := again.Dense[name]
			if g == nil || g.Rows != m.Rows || g.Cols != m.Cols || !f32sBitEqual(g.Data, m.Data) {
				t.Fatalf("dense %q changed", name)
			}
		}
		for tid, bags := range req.Bags {
			if !bagsEqual(again.Bags[tid], bags) {
				t.Fatalf("bags of table %d changed", tid)
			}
		}
	})
}
