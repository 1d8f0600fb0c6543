package nn

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// SLSEntry is one table's lookup inside a fused MultiSLS op.
type SLSEntry struct {
	Table     embedding.Table
	InputBags string
	Output    string
}

// MultiSLS executes SparseLengthsSum for a group of tables in one
// operator. The work is identical to one embedding.SLS per table (the
// tables still pool sequentially, as Caffe2 schedules them), but the
// group records a single trace span, keeping span volume proportional to
// operator *groups* rather than the 257 tables of DRM1. The singular
// configuration uses one MultiSLS per net; sparse shards use one per
// request.
type MultiSLS struct {
	OpName  string
	Entries []SLSEntry
}

// Name implements Op.
func (o *MultiSLS) Name() string { return o.OpName }

// Kind implements Op.
func (o *MultiSLS) Kind() OpKind { return KindSparse }

// Run implements Op.
func (o *MultiSLS) Run(ws *Workspace) error {
	for i := range o.Entries {
		e := &o.Entries[i]
		bags, err := ws.Bags(e.InputBags)
		if err != nil {
			return fmt.Errorf("%s[%d]: %w", o.OpName, i, err)
		}
		dim := e.Table.Dim()
		out := tensor.New(len(bags), dim)
		embedding.SLS(out.Data, e.Table, bags)
		ws.SetBlob(e.Output, out)
	}
	return nil
}

// HashAllBags hashes a group of raw-ID bag inputs into table-bucket
// index bags, one table per entry, in a single fused operator (same
// span-volume rationale as MultiSLS). It is the "sparse inputs are
// transformed into a list of access IDs, or hash indices" step of
// Section II-1 and the "Hash" group of Fig. 4.
type HashAllBags struct {
	OpName  string
	Entries []HashEntry
}

// HashEntry is one feature's hashing task.
type HashEntry struct {
	Buckets       int32
	Input, Output string
}

// Name implements Op.
func (o *HashAllBags) Name() string { return o.OpName }

// Kind implements Op.
func (o *HashAllBags) Kind() OpKind { return KindHash }

// Run implements Op.
func (o *HashAllBags) Run(ws *Workspace) error {
	for i := range o.Entries {
		e := &o.Entries[i]
		if e.Buckets <= 0 {
			return fmt.Errorf("%s[%d]: buckets %d <= 0", o.OpName, i, e.Buckets)
		}
		in, err := ws.Bags(e.Input)
		if err != nil {
			return fmt.Errorf("%s[%d]: %w", o.OpName, i, err)
		}
		// One flat allocation per table, sub-sliced per bag: the hash op
		// runs for every table on every batch, so per-bag allocations
		// would dominate its cost.
		total := 0
		for _, bag := range in {
			total += len(bag.Indices)
		}
		flat := make([]int32, 0, total)
		out := make([]embedding.Bag, len(in))
		for b, bag := range in {
			if len(bag.Indices) == 0 {
				continue
			}
			lo := len(flat)
			for _, id := range bag.Indices {
				flat = append(flat, hash32(id)%e.Buckets)
			}
			out[b].Indices = flat[lo:len(flat):len(flat)]
		}
		ws.SetBags(e.Output, out)
	}
	return nil
}

// hash32 is a Murmur-style finalizer: cheap, deterministic, well mixed.
func hash32(x int32) int32 {
	h := uint32(x)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return int32(h & 0x7fffffff)
}
