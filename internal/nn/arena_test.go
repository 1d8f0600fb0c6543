package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestBlobScheduleReusesDeadLanes(t *testing.T) {
	// a dies at op 1, b is defined at op 2 with the same width: one lane.
	s, err := NewBlobSchedule([]BlobSpec{
		{Name: "a", Cols: 8, Def: 0, LastUse: 1},
		{Name: "b", Cols: 8, Def: 2, LastUse: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalCols() != 8 {
		t.Errorf("TotalCols = %d, want 8 (b should reuse a's lane)", s.TotalCols())
	}
}

func TestBlobScheduleKeepsLiveBlobsApart(t *testing.T) {
	// b is defined at the op that last reads a: endpoint overlap must NOT
	// share a lane (the producing op streams from a into b).
	s, err := NewBlobSchedule([]BlobSpec{
		{Name: "a", Cols: 8, Def: 0, LastUse: 2},
		{Name: "b", Cols: 8, Def: 2, LastUse: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalCols() != 16 {
		t.Errorf("TotalCols = %d, want 16 (endpoint-overlapping blobs must not share)", s.TotalCols())
	}
}

func TestBlobScheduleNoLiveOverlapProperty(t *testing.T) {
	// Random op chains: at every op index, the storage ranges of all live
	// blobs must be disjoint.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		var specs []BlobSpec
		nOps := 2 + rng.Intn(12)
		for i := 0; i < 4+rng.Intn(8); i++ {
			def := rng.Intn(nOps) - 1 // allow pre-net definitions
			specs = append(specs, BlobSpec{
				Name:    string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Cols:    1 + rng.Intn(32),
				Def:     def,
				LastUse: def + rng.Intn(nOps-def),
			})
		}
		s, err := NewBlobSchedule(specs)
		if err != nil {
			t.Fatal(err)
		}
		for op := -1; op <= nOps; op++ {
			type rangeOf struct {
				name   string
				lo, hi int
			}
			var live []rangeOf
			for _, sp := range specs {
				if sp.Def <= op && op <= sp.LastUse {
					slot := s.slots[sp.Name]
					live = append(live, rangeOf{sp.Name, slot.off, slot.off + slot.cols})
				}
			}
			for i := 0; i < len(live); i++ {
				for j := i + 1; j < len(live); j++ {
					a, b := live[i], live[j]
					if a.lo < b.hi && b.lo < a.hi {
						t.Fatalf("trial %d op %d: live blobs %s [%d,%d) and %s [%d,%d) overlap",
							trial, op, a.name, a.lo, a.hi, b.name, b.lo, b.hi)
					}
				}
			}
		}
	}
}

func TestBlobScheduleRejectsBadSpecs(t *testing.T) {
	if _, err := NewBlobSchedule([]BlobSpec{{Name: "a", Cols: 0, Def: 0, LastUse: 1}}); err == nil {
		t.Error("zero width must be rejected")
	}
	if _, err := NewBlobSchedule([]BlobSpec{{Name: "a", Cols: 4, Def: 3, LastUse: 1}}); err == nil {
		t.Error("negative lifetime must be rejected")
	}
	if _, err := NewBlobSchedule([]BlobSpec{
		{Name: "a", Cols: 4, Def: 0, LastUse: 1},
		{Name: "a", Cols: 4, Def: 2, LastUse: 3},
	}); err == nil {
		t.Error("duplicate name must be rejected")
	}
}

func TestArenaDrawAndFallback(t *testing.T) {
	s, err := NewBlobSchedule([]BlobSpec{{Name: "x", Cols: 4, Def: 0, LastUse: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewArenaPool(s)
	a := pool.Get(3)
	m := a.Blob("x", 3, 4)
	if m == nil || m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("scheduled draw failed: %v", m)
	}
	if a.Blob("x", 2, 4) != nil {
		t.Error("row mismatch must miss")
	}
	if a.Blob("x", 3, 5) != nil {
		t.Error("col mismatch must miss")
	}
	if a.Blob("y", 3, 4) != nil {
		t.Error("unscheduled name must miss")
	}
	ws := NewWorkspace()
	ws.SetArena(a)
	if got := ws.AllocBlob("y", 2, 2); got == nil || got.Rows != 2 {
		t.Error("AllocBlob must fall back to a fresh matrix")
	}
	pool.Put(a)
}

func TestArenaPoolReusesSlab(t *testing.T) {
	s, err := NewBlobSchedule([]BlobSpec{{Name: "x", Cols: 4, Def: 0, LastUse: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewArenaPool(s)
	a := pool.Get(8)
	a.Blob("x", 8, 4).Data[0] = 42
	pool.Put(a)
	b := pool.Get(4) // smaller: must reuse the slab, not reallocate
	if b != a {
		t.Skip("sync.Pool dropped the arena (GC); nothing to assert")
	}
	if cap(b.slab) < 8*4 {
		t.Errorf("slab shrank to %d", cap(b.slab))
	}
	if b.Rows() != 4 {
		t.Errorf("Rows = %d, want 4", b.Rows())
	}
}

func TestNilArenaAndPoolAreInert(t *testing.T) {
	var p *ArenaPool
	if p.Get(4) != nil {
		t.Error("nil pool Get must return nil")
	}
	p.Put(nil)
	ws := NewWorkspace()
	if m := ws.AllocBlob("z", 2, 3); m == nil || len(m.Data) != 6 {
		t.Error("AllocBlob without arena must allocate")
	}
	if m := ws.AllocBlobZero("z", 2, 3); m == nil || m.Data[0] != 0 {
		t.Error("AllocBlobZero without arena must allocate zeroed")
	}
	if NewArenaPool(nil) != nil {
		t.Error("nil schedule must give nil pool")
	}
}

// TestFusedFCMatchesUnfused checks the fused op bitwise against an
// unfused reference — GEMM, then a bias pass, then an activation pass —
// with and without bias, for both activations and ActNone.
func TestFusedFCMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := tensor.New(12, 9)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64())
	}
	bias := make([]float32, 9)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	in := tensor.New(21, 12)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}

	for _, tc := range []struct {
		name string
		act  ActivationFunc
		b    []float32
	}{
		{"relu+bias", ActReLU, bias},
		{"sigmoid+bias", ActSigmoid, bias},
		{"none+bias", ActNone, bias},
		{"relu-nobias", ActReLU, nil},
	} {
		want := tensor.New(in.Rows, w.Cols)
		tensor.MatMul(want, in, w)
		if tc.b != nil {
			tensor.AddBiasRows(want, tc.b)
		}
		switch tc.act {
		case ActReLU:
			tensor.ReLUSlice(want.Data)
		case ActSigmoid:
			tensor.SigmoidSlice(want.Data)
		}

		wsB := NewWorkspace()
		wsB.SetBlob("in", in.Clone())
		fused := &FusedFC{OpName: "ffc", W: w, B: tc.b, Act: tc.act, Input: "in", Output: "out"}
		if err := fused.Run(wsB); err != nil {
			t.Fatal(err)
		}
		got, _ := wsB.Blob("out")
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: element %d differs: %v vs %v", tc.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestFusedFCValidates(t *testing.T) {
	// Input/weight mismatch and a missing input: TestFCShapeError and
	// TestFCMissingInput.
	w := tensor.New(4, 3)
	ws := NewWorkspace()
	ws.SetBlob("in", tensor.New(2, 4))
	if err := (&FusedFC{OpName: "f", W: w, B: make([]float32, 7), Input: "in", Output: "o"}).Run(ws); err == nil {
		t.Error("bias length mismatch must error")
	}
	if err := (&FusedFC{OpName: "f", W: w, Act: ActivationFunc(99), Input: "in", Output: "o"}).Run(ws); err == nil {
		t.Error("unknown activation must error")
	}
}
