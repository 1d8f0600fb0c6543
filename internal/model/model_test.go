package model

import (
	"math"
	"strings"
	"testing"

	"repro/internal/embedding"
)

func TestDRMConfigsBasicShape(t *testing.T) {
	cases := []struct {
		cfg        Config
		tables     int
		nets       int
		sparseFrac float64 // minimum sparse share of capacity
	}{
		{DRM1(), 257, 2, 0.95},
		{DRM2(), 133, 2, 0.95},
		{DRM3(), 39, 1, 0.98},
	}
	for _, c := range cases {
		if len(c.cfg.Tables) != c.tables {
			t.Errorf("%s: %d tables, want %d", c.cfg.Name, len(c.cfg.Tables), c.tables)
		}
		if len(c.cfg.Nets) != c.nets {
			t.Errorf("%s: %d nets, want %d", c.cfg.Name, len(c.cfg.Nets), c.nets)
		}
		m := Build(c.cfg)
		frac := float64(m.SparseTableBytes()) / float64(m.TotalBytes())
		if frac < c.sparseFrac {
			// Paper: >97% for DRM1/2, >99.9% for DRM3. Dense parameters do
			// not scale down with the 4096x table scaling (the same MLPs
			// serve both), so the scaled-down bounds relax slightly; at
			// paper scale these dense sizes give >99.99% sparse share.
			t.Errorf("%s: sparse capacity share %.4f < %.4f", c.cfg.Name, frac, c.sparseFrac)
		}
	}
}

func TestTableIDsAreDense(t *testing.T) {
	for _, name := range Names() {
		cfg := ByName(name)
		for i, ts := range cfg.Tables {
			if ts.ID != i {
				t.Fatalf("%s: table %d has ID %d", name, i, ts.ID)
			}
			if ts.Rows <= 0 || ts.Dim <= 0 {
				t.Fatalf("%s: table %d has bad shape %dx%d", name, i, ts.Rows, ts.Dim)
			}
			if ts.PoolingFactor <= 0 {
				t.Fatalf("%s: table %d has non-positive pooling", name, i)
			}
		}
	}
}

func TestDRM3DominatedBySingleTable(t *testing.T) {
	cfg := DRM3()
	total := cfg.SparseBytes()
	big := cfg.Tables[0].Bytes()
	if frac := float64(big) / float64(total); frac < 0.85 {
		t.Errorf("DRM3 largest table holds %.3f of capacity, want ≥0.85 (paper: 178.8/200)", frac)
	}
	if cfg.Tables[0].PoolingFactor != 1 {
		t.Errorf("DRM3 dominating table pooling = %v, want 1", cfg.Tables[0].PoolingFactor)
	}
	if !IsPerRequestTable("DRM3", 0) {
		t.Error("DRM3 table 0 should be a per-request feature")
	}
	if IsPerRequestTable("DRM1", 0) {
		t.Error("DRM1 has no per-request tables")
	}
}

func TestDRM1NetPoolingSplit(t *testing.T) {
	cfg := DRM1()
	var p1, p2, b1, b2 float64
	for _, ts := range cfg.Tables {
		if ts.Net == "net1" {
			p1 += ts.PoolingFactor
			b1 += float64(ts.Bytes())
		} else {
			p2 += ts.PoolingFactor
			b2 += float64(ts.Bytes())
		}
	}
	// Paper (Table II NSBP-2): net1 does ~94% of pooling with ~17% of
	// capacity; net2 the inverse.
	if frac := p1 / (p1 + p2); frac < 0.85 {
		t.Errorf("net1 pooling share %.3f, want ≥0.85", frac)
	}
	if frac := b2 / (b1 + b2); frac < 0.75 {
		t.Errorf("net2 capacity share %.3f, want ≥0.75", frac)
	}
}

func TestDRMLongTailDistribution(t *testing.T) {
	// DRM1/DRM2 have long-tailed size distributions: the largest table is
	// a small fraction of total, unlike DRM3.
	for _, cfg := range []Config{DRM1(), DRM2()} {
		var largest, total int64
		for _, ts := range cfg.Tables {
			if ts.Bytes() > largest {
				largest = ts.Bytes()
			}
			total += ts.Bytes()
		}
		if frac := float64(largest) / float64(total); frac > 0.25 {
			t.Errorf("%s: largest table holds %.3f of capacity — should be long-tailed", cfg.Name, frac)
		}
	}
}

func TestConfigDeterminism(t *testing.T) {
	a, b := DRM1(), DRM1()
	if len(a.Tables) != len(b.Tables) {
		t.Fatal("table counts differ")
	}
	for i := range a.Tables {
		if a.Tables[i] != b.Tables[i] {
			t.Fatalf("table %d differs across builds: %+v vs %+v", i, a.Tables[i], b.Tables[i])
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	m1, m2 := Build(DRM2()), Build(DRM2())
	t1 := m1.Tables[5].(*embedding.Dense)
	t2 := m2.Tables[5].(*embedding.Dense)
	for i := range t1.Data {
		if t1.Data[i] != t2.Data[i] {
			t.Fatal("model parameters must be deterministic")
		}
	}
	if m1.NetParams[0].Proj.W.Data[0] != m2.NetParams[0].Proj.W.Data[0] {
		t.Fatal("dense parameters must be deterministic")
	}
}

func TestNetTables(t *testing.T) {
	cfg := DRM1()
	n1 := cfg.NetTables("net1")
	n2 := cfg.NetTables("net2")
	if len(n1) != 72 || len(n2) != 185 {
		t.Errorf("net splits = %d/%d, want 72/185", len(n1), len(n2))
	}
	if len(cfg.NetTables("missing")) != 0 {
		t.Error("unknown net should have no tables")
	}
}

func TestTotalPooling(t *testing.T) {
	cfg := DRM1()
	p := cfg.TotalPoolingPerItem()
	if p < 80 || p > 300 {
		t.Errorf("DRM1 pooling per item = %v, want on the order of 100", p)
	}
	cfg3 := DRM3()
	if p3 := cfg3.TotalPoolingPerItem(); p3 > p/3 {
		t.Errorf("DRM3 pooling (%v) should be far below DRM1 (%v)", p3, p)
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, n := range Names() {
		if got := ByName(n).Name; got != n {
			t.Errorf("ByName(%q).Name = %q", n, got)
		}
	}
	if ByName("drm1").Name != "DRM1" {
		t.Error("lowercase alias should work")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown model should panic")
		}
	}()
	ByName("nope")
}

// TestCheckNameMatchesByName pins the CLI check to ByName: a name passes
// exactly when ByName builds it without panicking.
func TestCheckNameMatchesByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{{"DRM1", true}, {"drm1", true}, {"Drm1", false}, {"DRM9", false}, {"", false}} {
		built := func() (ok bool) {
			defer func() { ok = recover() == nil }()
			ByName(tc.name)
			return
		}()
		err := CheckName(tc.name)
		if (err == nil) != tc.ok || built != tc.ok {
			t.Errorf("%q: CheckName err %v, ByName built %v; want accepted=%v", tc.name, err, built, tc.ok)
		}
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("%q: error spans lines: %q", tc.name, err)
		}
	}
}

func TestBuildPanicsOnBadIDs(t *testing.T) {
	cfg := DRM3()
	cfg.Tables[3].ID = 99
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-dense IDs")
		}
	}()
	Build(cfg)
}

func TestCompressShrinksTables(t *testing.T) {
	cfg := DRM3()
	m := Build(cfg)
	// Big-table threshold chosen so the dominating table gets 4-bit.
	compressed := m.Compress(1<<20, 0.002)
	if compressed.SparseTableBytes() >= m.SparseTableBytes() {
		t.Fatal("compression should shrink sparse bytes")
	}
	ratio := float64(m.SparseTableBytes()) / float64(compressed.SparseTableBytes())
	// Paper Table III reports 5.56× total; with the dominating table at
	// 4-bit (≈8×) and the tail at 8-bit (≈4×) we should land well above 4×.
	if ratio < 4 {
		t.Errorf("compression ratio %.2f, want ≥4", ratio)
	}
	// Dense params shared, not duplicated.
	if compressed.DenseBytes() != m.DenseBytes() {
		t.Error("dense bytes should be unchanged")
	}
	// Compressing twice is a no-op for already-quantized tables.
	again := compressed.Compress(1<<20, 0.002)
	if again.SparseTableBytes() != compressed.SparseTableBytes() {
		t.Error("re-compression should be idempotent")
	}
}

func TestCompressPreservesLookupSemantics(t *testing.T) {
	m := Build(DRM2())
	c := m.Compress(1<<40, 0) // no pruning, all 8-bit
	tab := m.Tables[3].(*embedding.Dense)
	acc1 := make([]float32, tab.Dim())
	acc2 := make([]float32, tab.Dim())
	m.Tables[3].AccumulateRow(acc1, 5)
	c.Tables[3].AccumulateRow(acc2, 5)
	for i := range acc1 {
		if math.Abs(float64(acc1[i]-acc2[i])) > 0.01 {
			t.Fatalf("quantized lookup diverges: %v vs %v", acc2[i], acc1[i])
		}
	}
}
