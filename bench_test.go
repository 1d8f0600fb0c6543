// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark drives the corresponding experiment through
// the shared runner; the rendered artifact is printed once per process so
//
//	go test -bench=. -benchmem
//
// emits the full set of reproduced tables/figures alongside timings.
// Measurement runs are memoized within the process (figures share
// configuration replays exactly as the paper's analysis shares traces),
// so the first iteration of each benchmark carries the real cost.
//
// Environment knobs: REPRO_BENCH_REQUESTS overrides the per-configuration
// request count (default 48).
package repro

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/trace"
)

var (
	benchMu      sync.Mutex
	benchRunner  *experiments.Runner
	benchPrinted = map[string]bool{}
)

func runner() *experiments.Runner {
	if benchRunner == nil {
		requests := 48
		if v := os.Getenv("REPRO_BENCH_REQUESTS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				requests = n
			}
		}
		benchRunner = experiments.NewRunner(experiments.Params{
			Requests: requests, Warmup: 6, Seed: 12345,
		})
	}
	return benchRunner
}

// runExperiment executes one experiment; the first execution in the
// process prints the rendered artifact.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var out io.Writer = io.Discard
	if !benchPrinted[id] {
		benchPrinted[id] = true
		out = os.Stdout
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(runner(), out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkFig1ModelGrowth regenerates Fig. 1 (historical model growth,
// synthetic trend per DESIGN.md's substitution table).
func BenchmarkFig1ModelGrowth(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig3ExampleTrace regenerates Fig. 3 (an example distributed
// trace rendered as a shard-sliced timeline).
func BenchmarkFig3ExampleTrace(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4OperatorAttribution regenerates Fig. 4 (operator compute
// attribution for DRM1/DRM2/DRM3 under the singular configuration).
func BenchmarkFig4OperatorAttribution(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5TableSizes regenerates Fig. 5 (embedding-table size
// distributions).
func BenchmarkFig5TableSizes(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkTable2ShardingResults regenerates Table II (per-shard
// capacity / table count / pooling under every sharding configuration).
func BenchmarkTable2ShardingResults(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkFig6Overheads regenerates Fig. 6 (P50/P90/P99 latency and
// compute overheads vs singular for DRM1 and DRM2, serial requests).
func BenchmarkFig6Overheads(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7DRM3Overheads regenerates Fig. 7 (DRM3 overheads:
// sharding does not help a single-dominating-table model).
func BenchmarkFig7DRM3Overheads(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8LatencyStacks regenerates Fig. 8 (P50 E2E latency stacks
// and embedded-portion stacks by configuration).
func BenchmarkFig8LatencyStacks(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9CPUStacks regenerates Fig. 9 (P50 aggregate CPU stacks).
func BenchmarkFig9CPUStacks(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10PerShardByNet regenerates Fig. 10 (DRM1 per-shard
// operator latency by net: load-balanced vs NSBP at 8 shards).
func BenchmarkFig10PerShardByNet(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11DRM3PerShard regenerates Fig. 11 (DRM3 per-shard
// latencies and embedded stacks).
func BenchmarkFig11DRM3PerShard(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12PerShardByStrategy regenerates Fig. 12 (DRM1 per-shard
// operator latency under all strategies at 8 shards).
func BenchmarkFig12PerShardByStrategy(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13BatchingLatency regenerates Fig. 13 (default- vs
// single-batch latency stacks).
func BenchmarkFig13BatchingLatency(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14BatchingCPU regenerates Fig. 14 (default- vs
// single-batch CPU stacks).
func BenchmarkFig14BatchingCPU(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15PlatformEfficiency regenerates Fig. 15 (per-shard
// operator latency on SC-Large vs SC-Small).
func BenchmarkFig15PlatformEfficiency(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16HighQPS regenerates Fig. 16 (DRM1 overheads under
// open-loop high-QPS load).
func BenchmarkFig16HighQPS(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkTable3Compression regenerates Table III (quantization and
// pruning on DRM1).
func BenchmarkTable3Compression(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkReplicationEconomics regenerates the Section VII-C analysis
// (fleet sizing and memory at equal QPS, singular vs distributed).
func BenchmarkReplicationEconomics(b *testing.B) { runExperiment(b, "repl") }

// BenchmarkFrontierServing sweeps the SLA-aware serving frontend's batch
// window against offered QPS (throughput/P99/fallback frontier).
func BenchmarkFrontierServing(b *testing.B) { runExperiment(b, "front") }

// BenchmarkReshardOnline regenerates the online-resharding sweep: load
// drift × move budget, with the mid-migration score-identity check.
func BenchmarkReshardOnline(b *testing.B) { runExperiment(b, "reshard") }

// BenchmarkTieredStorage regenerates the tiered-storage sweep: cache
// budget × cold precision × row skew, the paired equal-QPS verdict, and
// the migration identity check with the hot-row cache enabled.
func BenchmarkTieredStorage(b *testing.B) { runExperiment(b, "tiered") }

// BenchmarkDenseEngine regenerates the dense-engine sweep: blocked GEMM
// GFLOP/s across batch × parallelism × MLP shape with the bitwise
// serial/parallel identity check, plus e2e latency at both settings.
func BenchmarkDenseEngine(b *testing.B) { runExperiment(b, "dense") }

// BenchmarkFaultTolerance regenerates the replica-failure sweep: kills ×
// replica count × hedge delay with health ejection on/off, the SLA and
// rebuild/rejoin timings, and the degraded-fleet score-identity check.
func BenchmarkFaultTolerance(b *testing.B) { runExperiment(b, "fault") }

// denseOperands builds deterministic GEMM operands for the dense-path
// benchmarks.
func denseOperands(m, k, n int) (a, b *tensor.Matrix) {
	rng := rand.New(rand.NewSource(1234))
	a, b = tensor.New(m, k), tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = rng.Float32()*2 - 1
	}
	for i := range b.Data {
		b.Data[i] = rng.Float32()*2 - 1
	}
	return a, b
}

// BenchmarkDenseGEMM measures the blocked GEMM on a coalesced-batch
// serving shape (64 rows through DRM1's 418->256 top layer). The
// serial/parallel pair runs whatever kernel auto-dispatch resolves;
// the generic/vector pair pins each kernel family explicitly so the
// bench gate can assert the vectorized micro-kernel actually beats the
// scalar one (benchcheck -assert-faster), and the *-tail pair repeats
// the comparison on a deliberately awkward shape (61x419x253: row,
// column, and k tails all non-empty) where the SIMD kernels hand the
// leftovers to their scalar epilogues. Every arm must produce bitwise
// identical outputs; only the wall clock may differ.
func BenchmarkDenseGEMM(b *testing.B) {
	a, w := denseOperands(64, 418, 256)
	at, wt := denseOperands(61, 419, 253)
	for _, tc := range []struct {
		name string
		par  int
		kern tensor.Kernel
		a, w *tensor.Matrix
	}{
		{"serial", 1, tensor.KernelAuto, a, w},
		{"parallel", 0, tensor.KernelAuto, a, w},
		{"generic", 1, tensor.KernelGeneric, a, w},
		{"vector", 1, tensor.KernelVector, a, w},
		{"generic-tail", 1, tensor.KernelGeneric, at, wt},
		{"vector-tail", 1, tensor.KernelVector, at, wt},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, k, n := tc.a.Rows, tc.a.Cols, tc.w.Cols
			out := tensor.New(m, n)
			tensor.SetParallelism(tc.par)
			tensor.SetKernel(tc.kern)
			defer tensor.SetParallelism(0)
			defer tensor.SetKernel(tensor.KernelAuto)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(out, tc.a, tc.w)
			}
			flops := 2 * m * k * n
			b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// nopExec is a zero-cost executor isolating the serving frontend's own
// hot path (queue, gather, admission, demux) from engine time.
type nopExec struct{}

func (nopExec) Validate(*core.RankingRequest) error { return nil }

func (nopExec) ExecuteBatch(items []core.BatchItem) ([][]float32, error) {
	out := make([][]float32, len(items))
	for i, it := range items {
		out[i] = make([]float32, it.Req.Items)
	}
	return out, nil
}

// BenchmarkFrontendBatcher measures the dynamic batcher's hot path:
// concurrent submits coalescing through the queue into no-op executions.
// The custom reqs/batch metric shows the coalescing the contention level
// actually achieves.
func BenchmarkFrontendBatcher(b *testing.B) {
	f := frontend.New(nopExec{}, frontend.Config{MaxQueue: 4096, MaxBatchRequests: 64})
	defer f.Close()
	req := &core.RankingRequest{ID: 1, Items: 8}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := f.Submit(trace.Context{TraceID: 1}, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
	st := f.Stats()
	if st.Batches > 0 {
		b.ReportMetric(float64(st.BatchedRequests)/float64(st.Batches), "reqs/batch")
	}
}

// BenchmarkFrontendAdmission measures the admission-control path: every
// submit prices its SLA budget against the estimator before queueing.
func BenchmarkFrontendAdmission(b *testing.B) {
	f := frontend.New(nopExec{}, frontend.Config{
		MaxQueue: 4096, MaxBatchRequests: 64, Budget: time.Second,
	})
	defer f.Close()
	req := &core.RankingRequest{ID: 1, Items: 8}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := f.Submit(trace.Context{TraceID: 1}, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkObsOverhead prices the telemetry tentpole: the serving
// frontend's hot path (queue, admission, gather, demux over a no-op
// executor, so instrumentation is the signal rather than engine time)
// with the discarding registry — every handle nil, the uninstrumented
// baseline — against a live registry plus 1-in-16 sampled tracing. The
// benchcheck gate holds both arms to the recorded baseline, so an
// obs-path regression (or an accidentally hot discard path) fails CI.
func BenchmarkObsOverhead(b *testing.B) {
	for _, tc := range []struct {
		name   string
		reg    *obs.Registry
		sample int
	}{
		{"discard", obs.Discard(), 0},
		{"live", obs.NewRegistry(), 16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := frontend.Config{
				MaxQueue: 4096, MaxBatchRequests: 64, Budget: time.Second,
				Obs: tc.reg,
			}
			if tc.sample > 0 {
				cfg.Tracer = obs.NewTracer(tc.reg, obs.TracerConfig{SampleEvery: tc.sample})
			}
			f := frontend.New(nopExec{}, cfg)
			defer f.Close()
			req := &core.RankingRequest{ID: 1, Items: 8}
			var id atomic.Uint64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := f.Submit(trace.Context{TraceID: id.Add(1)}, req); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestExperimentRegistryComplete pins the experiment inventory to the
// paper's artifact list so a new figure cannot silently go missing.
func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4", "fig5", "tab2", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "tab3",
		"repl", "front", "reshard", "tiered", "dense", "fault", "coserve",
		"fresh",
	}
	all := experiments.All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
	}
	if _, err := experiments.ByID("nope"); err == nil {
		t.Error("unknown id should error")
	}
	fmt.Fprintln(io.Discard) // keep fmt imported for future debugging
}
