package embedding

import "fmt"

// BagAccumulator is implemented by table backends with an amortized
// whole-bag pooling path (the tiered store: one lock pair per bag
// instead of per row). Implementations must pool in strict index order
// and bounds-check like SLS does, so swapping a backend in or out never
// changes results or panics.
type BagAccumulator interface {
	AccumulateBag(acc []float32, indices []int32)
}

// Bag is one pooled lookup: a set of row indices in a table whose
// embedding vectors are summed (the paper's pooling operation). One
// inference example contributes one bag per sparse feature; the number of
// indices in the bag is that feature's pooling factor for the example.
type Bag struct {
	Indices []int32
}

// SLS executes SparseLengthsSum over a table: for each bag, it sums the
// indexed rows into one output vector of length table.Dim(). out must be
// len(bags)*dim long (row-major, one row per bag). Rows are pre-zeroed.
//
// This mirrors Caffe2's SparseLengthsSum, the operator family the paper
// reports as "SLS" and which dominates sparse-shard compute.
func SLS(out []float32, table Table, bags []Bag) {
	dim := table.Dim()
	if len(out) != len(bags)*dim {
		panic(fmt.Sprintf("embedding: SLS out length %d != %d bags × dim %d", len(out), len(bags), dim))
	}
	for i := range out {
		out[i] = 0
	}
	if ba, ok := table.(BagAccumulator); ok {
		for b, bag := range bags {
			ba.AccumulateBag(out[b*dim:(b+1)*dim], bag.Indices)
		}
		return
	}
	rows := table.NumRows()
	for b, bag := range bags {
		acc := out[b*dim : (b+1)*dim]
		for _, idx := range bag.Indices {
			if idx < 0 || int(idx) >= rows {
				panic(fmt.Sprintf("embedding: SLS index %d out of range [0,%d)", idx, rows))
			}
			table.AccumulateRow(acc, int(idx))
		}
	}
}

// TotalLookups returns the total pooling work (number of row accesses)
// across bags — the quantity the load-balanced sharding strategy budgets.
func TotalLookups(bags []Bag) int {
	n := 0
	for _, b := range bags {
		n += len(b.Indices)
	}
	return n
}
