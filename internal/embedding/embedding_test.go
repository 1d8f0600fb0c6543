package embedding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quant"
)

func TestDenseBasics(t *testing.T) {
	tab := NewDense(4, 3)
	if tab.NumRows() != 4 || tab.Dim() != 3 || tab.Bytes() != 48 {
		t.Fatalf("shape wrong: %+v", tab)
	}
	tab.Row(2)[1] = 5
	acc := make([]float32, 3)
	tab.AccumulateRow(acc, 2)
	if acc[1] != 5 {
		t.Errorf("AccumulateRow: %v", acc)
	}
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDense(0, 4)
}

func TestSLSKnown(t *testing.T) {
	tab := NewDense(3, 2)
	copy(tab.Data, []float32{1, 2, 10, 20, 100, 200})
	bags := []Bag{
		{Indices: []int32{0, 2}}, // rows 0+2 = {101, 202}
		{Indices: []int32{1}},    // row 1 = {10, 20}
		{},                       // empty bag = zeros
	}
	out := make([]float32, 6)
	SLS(out, tab, bags)
	want := []float32{101, 202, 10, 20, 0, 0}
	for i, w := range want {
		if out[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out[i], w)
		}
	}
}

func TestSLSZeroesOutput(t *testing.T) {
	tab := NewDense(1, 2)
	out := []float32{9, 9}
	SLS(out, tab, []Bag{{}})
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("SLS must zero output first: %v", out)
	}
}

func TestSLSPanicsOnBadIndex(t *testing.T) {
	tab := NewDense(2, 2)
	out := make([]float32, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	SLS(out, tab, []Bag{{Indices: []int32{5}}})
}

func TestSLSPanicsOnBadOutLen(t *testing.T) {
	tab := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad out length")
		}
	}()
	SLS(make([]float32, 3), tab, []Bag{{}})
}

func TestTotalLookups(t *testing.T) {
	bags := []Bag{{Indices: []int32{1, 2}}, {}, {Indices: []int32{3}}}
	if got := TotalLookups(bags); got != 3 {
		t.Errorf("TotalLookups = %d, want 3", got)
	}
}

func TestQuantizedTableMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := NewDenseRandom(rng, 50, 16, 1)
	qt := tab.Quantize(quant.Bits8)
	if qt.NumRows() != 50 || qt.Dim() != 16 {
		t.Fatalf("quantized shape wrong")
	}
	bags := []Bag{{Indices: []int32{0, 7, 31}}}
	dense := make([]float32, 16)
	quantized := make([]float32, 16)
	SLS(dense, tab, bags)
	SLS(quantized, qt, bags)
	for i := range dense {
		// 3 lookups × per-row bound (half step + fp16 header rounding).
		if diff := math.Abs(float64(dense[i] - quantized[i])); diff > 0.03 {
			t.Errorf("quantized SLS diverges at %d: %v vs %v", i, quantized[i], dense[i])
		}
	}
	if qt.Bytes() >= tab.Bytes() {
		t.Errorf("quantized table should be smaller: %d vs %d", qt.Bytes(), tab.Bytes())
	}
}

func TestPartitionRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := NewDenseRandom(rng, 17, 4, 1) // odd row count exercises remainders
	parts := PartitionRows(src, 4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	for r := 0; r < src.NumRows(); r++ {
		p := parts[r%4]
		local := p.LocalRow(r)
		got := p.Local.Row(local)
		want := src.Row(r)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("row %d mismatch at col %d", r, c)
			}
		}
	}
}

func TestLocalRowPanicsOnWrongPart(t *testing.T) {
	src := NewDense(8, 2)
	parts := PartitionRows(src, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	parts[0].LocalRow(3) // 3 % 2 == 1, belongs to part 1
}

func TestPartitionPanicsOnBadParts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PartitionRows(NewDense(4, 2), 0)
}

func TestPartitionMorePartsThanRows(t *testing.T) {
	src := NewDense(2, 2)
	parts := PartitionRows(src, 5)
	for _, p := range parts {
		if p.Local.NumRows() < 1 {
			t.Errorf("part %d has no backing rows", p.Index)
		}
	}
}

// splitBags routes each bag's logical indices to per-part bags with
// local indices, preserving bag positions so per-part SLS outputs align.
func splitBags(bags []Bag, numParts int) [][]Bag {
	out := make([][]Bag, numParts)
	for p := range out {
		out[p] = make([]Bag, len(bags))
	}
	for b, bag := range bags {
		for _, idx := range bag.Indices {
			p := int(idx) % numParts
			out[p][b].Indices = append(out[p][b].Indices, idx/int32(numParts))
		}
	}
	return out
}

// mergePartial sums per-part SLS outputs into one pooled result.
func mergePartial(out []float32, partials [][]float32) {
	for _, part := range partials {
		for i, v := range part {
			out[i] += v
		}
	}
}

// TestShardedSLSEquivalence is the core invariant of row-sharding: SLS on
// the full table equals the sum of per-part SLS results routed through
// splitBags. This is what makes modulus partitioning transparent.
func TestShardedSLSEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewDenseRandom(rng, 64, 8, 1)
	bags := make([]Bag, 5)
	for b := range bags {
		n := rng.Intn(10)
		for i := 0; i < n; i++ {
			bags[b].Indices = append(bags[b].Indices, int32(rng.Intn(64)))
		}
	}
	full := make([]float32, len(bags)*8)
	SLS(full, src, bags)

	for _, numParts := range []int{1, 2, 3, 7} {
		parts := PartitionRows(src, numParts)
		split := splitBags(bags, numParts)
		partials := make([][]float32, numParts)
		for p := 0; p < numParts; p++ {
			partials[p] = make([]float32, len(bags)*8)
			SLS(partials[p], parts[p].Local, split[p])
		}
		merged := make([]float32, len(bags)*8)
		mergePartial(merged, partials)
		for i := range full {
			if diff := math.Abs(float64(full[i] - merged[i])); diff > 1e-4 {
				t.Fatalf("numParts=%d: sharded SLS diverges at %d: %v vs %v", numParts, i, merged[i], full[i])
			}
		}
	}
}

func TestShardedSLSEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 8 + rng.Intn(56)
		dim := 1 + rng.Intn(8)
		numParts := 1 + rng.Intn(6)
		src := NewDenseRandom(rng, rows, dim, 1)
		bags := make([]Bag, 1+rng.Intn(4))
		for b := range bags {
			for i, n := 0, rng.Intn(8); i < n; i++ {
				bags[b].Indices = append(bags[b].Indices, int32(rng.Intn(rows)))
			}
		}
		full := make([]float32, len(bags)*dim)
		SLS(full, src, bags)
		parts := PartitionRows(src, numParts)
		split := splitBags(bags, numParts)
		partials := make([][]float32, numParts)
		for p := range parts {
			partials[p] = make([]float32, len(bags)*dim)
			SLS(partials[p], parts[p].Local, split[p])
		}
		merged := make([]float32, len(bags)*dim)
		mergePartial(merged, partials)
		for i := range full {
			if math.Abs(float64(full[i]-merged[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
