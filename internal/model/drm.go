package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Scale notes: the paper's models were themselves scaled down to fit a
// 256 GB server (DRM1: 194 GiB / 257 tables, DRM2: 138 GB / 133 tables,
// DRM3: 200 GB / 39 tables). We apply a further uniform ~1024× so the
// full suite runs in memory on a developer machine: 1 GiB in the paper
// maps to 1 MiB here. All size *ratios* — the long tail of DRM1/DRM2,
// DRM3's single dominating table at ~89% of capacity, the dominant
// sparse share of capacity — are preserved, and those ratios are what
// the paper's findings key on.

// perRequestTables records, per model name, table IDs whose sparse
// feature is shared across all items of a ranking request (e.g. the
// requesting user's ID — one lookup per request, replicated per item).
// DRM3's dominating table has pooling factor 1 with this property, which
// is why "only one of the shards spanning the table will be accessed" per
// inference (Section V-A).
var perRequestTables = map[string]map[int]bool{
	"DRM3": {0: true},
}

// IsPerRequestTable reports whether the table's sparse feature is shared
// by all items in a request (single lookup per request).
func IsPerRequestTable(modelName string, tableID int) bool {
	return perRequestTables[modelName][tableID]
}

// gibScaled maps a size reported in GiB by the paper to this
// reproduction's ~1024×-scaled byte count (1 GiB → 1 MiB).
func gibScaled(gib float64) int64 { return int64(gib * 1024 * 1024) }

// genTables draws per-table sizes from a lognormal distribution (the long
// tail of Fig. 5), scales them to hit totalBytes exactly, and assigns
// pooling factors from a second lognormal scaled to poolingPerItem.
func genTables(rng *rand.Rand, net string, startID, count int, dim int,
	totalBytes int64, sizeSigma float64, poolingPerItem, poolingSigma float64) []TableSpec {

	rawSize := make([]float64, count)
	rawPool := make([]float64, count)
	var sizeSum, poolSum float64
	for i := range rawSize {
		rawSize[i] = math.Exp(rng.NormFloat64() * sizeSigma)
		sizeSum += rawSize[i]
		rawPool[i] = math.Exp(rng.NormFloat64() * poolingSigma)
		poolSum += rawPool[i]
	}
	tables := make([]TableSpec, count)
	for i := range tables {
		bytes := float64(totalBytes) * rawSize[i] / sizeSum
		rows := int(bytes / float64(dim*4))
		if rows < 8 {
			rows = 8
		}
		tables[i] = TableSpec{
			ID:            startID + i,
			Name:          fmt.Sprintf("%s_t%03d", net, startID+i),
			Net:           net,
			Rows:          rows,
			Dim:           dim,
			PoolingFactor: poolingPerItem * rawPool[i] / poolSum,
		}
	}
	// Sort tables within the net by descending size so "largest table"
	// statistics are stable and interaction features pick big tables.
	sort.Slice(tables, func(i, j int) bool { return tables[i].Rows > tables[j].Rows })
	for i := range tables {
		tables[i].ID = startID + i
		tables[i].Name = fmt.Sprintf("%s_t%03d", net, startID+i)
	}
	return tables
}

// DRM1 mirrors the paper's most compute-intensive model: 257 tables in
// two nets with a long-tailed size distribution; net1 holds 72 small
// tables doing ~94% of the pooling work, net2 holds 185 large tables with
// low pooling (Table II's NSBP column: net1 33.58 GiB / 126652 pooling,
// net2 160 GiB / 8010 pooling). Requests are large (more batches than
// DRM2, Section VI-F).
func DRM1() Config {
	rng := rand.New(rand.NewSource(101))
	// 194 GiB / 1024 ≈ 194 MiB total sparse; net1:net2 ≈ 33.58:160.
	// net1's high-pooling tables use dim 8; net2's capacity-heavy tables
	// use dim 16, mirroring the paper's varying embedding dimensions.
	net1Bytes := gibScaled(33.58) // ≈ 33.6 MiB
	net2Bytes := gibScaled(160.0) // ≈ 160 MiB
	t1 := genTables(rng, "net1", 0, 72, 8, net1Bytes, 1.0, 200, 0.9)
	t2 := genTables(rng, "net2", 72, 185, 16, net2Bytes, 1.1, 16, 1.0)
	cfg := Config{
		Name: "DRM1",
		Nets: []NetSpec{
			{Name: "net1", DenseDim: 13, BottomMLP: []int{192, 96}, EmbProj: 256,
				TopMLP: []int{256, 96}, InteractFeatures: 12},
			{Name: "net2", DenseDim: 13, BottomMLP: []int{192, 96}, EmbProj: 256,
				TopMLP: []int{256, 1}, InteractFeatures: 12},
		},
		Tables:       append(t1, t2...),
		MeanItems:    32,
		ItemsSigma:   0.45,
		DefaultBatch: 16,
		Seed:         101,
	}
	return cfg
}

// DRM2 is architecturally similar to DRM1 ("DRM1 and DRM2 are the most
// similar architectures") with 133 tables, proportionally 138 GB of
// capacity, and smaller requests.
func DRM2() Config {
	rng := rand.New(rand.NewSource(202))
	// 138 GB / 1024 ≈ 138 MiB; net split chosen with the same
	// high-pooling-small-net1 shape as DRM1.
	net1Bytes := gibScaled(24.0)
	net2Bytes := gibScaled(114.0)
	t1 := genTables(rng, "net1", 0, 40, 8, net1Bytes, 1.0, 180, 0.9)
	t2 := genTables(rng, "net2", 40, 93, 16, net2Bytes, 1.1, 16, 1.0)
	return Config{
		Name: "DRM2",
		Nets: []NetSpec{
			{Name: "net1", DenseDim: 13, BottomMLP: []int{192, 96}, EmbProj: 256,
				TopMLP: []int{256, 96}, InteractFeatures: 12},
			{Name: "net2", DenseDim: 13, BottomMLP: []int{192, 96}, EmbProj: 256,
				TopMLP: []int{256, 1}, InteractFeatures: 12},
		},
		Tables:       append(t1, t2...),
		MeanItems:    20,
		ItemsSigma:   0.4,
		DefaultBatch: 16,
		Seed:         202,
	}
}

// DRM3 has a single net whose capacity is dominated by one huge table
// (178.8 GB of 200 GB in the paper — ~89%) with pooling factor 1 shared
// across the request's items (a per-user feature), and markedly lower
// sparse compute (3.1% of operator time). Its requests are small enough
// for a single batch at the default batch size.
func DRM3() Config {
	rng := rand.New(rand.NewSource(303))
	// 200 GB total, 178.8 GB dominating table, 21.2 GB over 38 tables.
	// The dominating table (a per-user feature) uses dim 16.
	bigRows := int(gibScaled(178.8) / (16 * 4))
	rest := genTables(rng, "net1", 1, 38, 8, gibScaled(21.2), 0.9, 5, 1.0)
	big := TableSpec{
		ID: 0, Name: "net1_t000", Net: "net1",
		Rows: bigRows, Dim: 16, PoolingFactor: 1,
	}
	tables := append([]TableSpec{big}, rest...)
	return Config{
		Name: "DRM3",
		Nets: []NetSpec{
			{Name: "net1", DenseDim: 13, BottomMLP: []int{256, 128}, EmbProj: 256,
				TopMLP: []int{256, 128, 1}, InteractFeatures: 10},
		},
		Tables:       tables,
		MeanItems:    16,
		ItemsSigma:   0.3,
		DefaultBatch: 24,
		Seed:         303,
	}
}

// builders is the model-name table: ByName builds from it and CheckName
// validates against it, so a name passes the check exactly when ByName
// accepts it.
var builders = map[string]func() Config{
	"DRM1": DRM1, "drm1": DRM1,
	"DRM2": DRM2, "drm2": DRM2,
	"DRM3": DRM3, "drm3": DRM3,
}

// ByName returns the named model config; it panics on unknown names,
// which is a CLI-input error callers should pre-validate with CheckName.
func ByName(name string) Config {
	build, ok := builders[name]
	if !ok {
		panic("model: " + CheckName(name).Error())
	}
	return build()
}

// CheckName returns a one-line error unless ByName accepts name.
func CheckName(name string) error {
	if _, ok := builders[name]; ok {
		return nil
	}
	return fmt.Errorf("unknown model %q (want %s)", name, strings.Join(Names(), ", "))
}

// Names lists the available model names.
func Names() []string { return []string{"DRM1", "DRM2", "DRM3"} }
