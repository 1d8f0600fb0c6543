// Command perfbench is the repository's serving benchmark. It boots one
// DRM1 workload in-process (model.Build → sharding plan → cluster.Boot
// behind the SLA frontend), drives it open loop over one loopback
// connection to the main shard, checks every score bitwise against an
// in-process singular engine, and prints every metric by name with its
// unit. The last line of standard output is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload lb2-steady --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/rpc"
)

const (
	// setupRepeats is how many times an untraced run sets the workload
	// up; setup_s is the median.
	setupRepeats = 3
	// Warm-up traffic runs for at least minWarmup seconds, then until
	// the next garbage collection completes, at most maxWarmup seconds in
	// all. Caches and the frontend's service-time estimate settle, the
	// heap has grown to its steady size, and the measured phase starts
	// just after a collection, so runs of a workload see about the same
	// collections at about the same offsets within their phase. A
	// workload that allocates little may not collect within maxWarmup; it
	// then grows its heap evenly through the run.
	minWarmup = 2
	maxWarmup = 6
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the request stream")
	seconds := fs.Int("seconds", 15, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	spanDir := fs.String("span-dir", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(s, *seed, *seconds, *spanDir)
	} else {
		rep, err = runUntraced(s, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct {
		fmt.Fprintln(stderr, "perfbench: scores differ from the reference:", rep.firstErr)
		return 1
	}
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's outcome.
type report struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	correct   bool
	firstErr  string
	// result is printed in the final JSON line; info only as text.
	result []metric
	info   []metric
}

// tally folds a phase's outcomes into the report: mismatches make the
// run incorrect wherever they happen, and the measured phase's requests
// are what the run attempted.
func (r *report) tally(pr *phaseResult, measured bool) (sent, ok, shed, failed int) {
	for _, x := range pr.results {
		switch x.out {
		case outOK:
			ok++
		case outShed:
			shed++
		case outWrong:
			r.correct = false
			failed++
		case outFail:
			failed++
		}
	}
	if pr.firstErr != "" && r.firstErr == "" {
		r.firstErr = pr.firstErr
	}
	if measured {
		r.attempted += len(pr.results)
		r.failed += failed
	}
	return len(pr.results), ok, shed, failed
}

// print writes the text lines and, last, the JSON result. A metric that
// is not a finite number is an error, and no result is printed.
func (r *report) print(w io.Writer) error {
	meta, _ := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Host     hostInfo `json:"host"`
	}{r.workload, r.seed, host()})
	fmt.Fprintf(w, "meta %s\n", meta)
	for _, m := range append(append([]metric(nil), r.result...), r.info...) {
		fmt.Fprintf(w, "%-34s %14.6f %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value)}
	for _, m := range r.result {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

// latencies summarizes the successful requests of a phase.
func latencies(pr *phaseResult) (p50, p99 float64, n int) {
	var xs []float64
	for _, r := range pr.results {
		if r.out == outOK {
			xs = append(xs, float64(r.lat))
		}
	}
	return ms(median(xs)), ms(percentile(xs, 0.99)), len(xs)
}

// generatorMetrics report how faithfully the generator kept its
// schedule: a late generator under-offers load.
func generatorMetrics(pr *phaseResult) []metric {
	late := make([]float64, len(pr.results))
	for i, r := range pr.results {
		late[i] = float64(r.late)
	}
	return []metric{
		{"serve.gen_late_p99_ms", ms(percentile(late, 0.99)), "ms"},
		{"serve.inflight_max", float64(pr.inflightMax), "count"},
	}
}

// phase runs one open-loop phase of seconds at the workload's rate,
// with the workload's publishes beside it.
func phase(gen *loadGen, pub *publisher, s spec, seconds float64) (*phaseResult, []pubEvent) {
	n := int(s.rate * seconds)
	pr := gen.run(n, s.rate, pub.begin(n))
	return pr, pub.finish(pr.start)
}

// warmup drives the workload before a measured phase; see minWarmup.
// After minWarmup it sends in slices of warmSlice seconds, so the phase
// starts within one slice of a collection.
func warmup(gen *loadGen, pub *publisher, s spec, rep *report) {
	const warmSlice = 0.2
	pr, _ := phase(gen, pub, s, minWarmup)
	rep.tally(pr, false)
	gc0 := numGC()
	for t := float64(minWarmup); t < maxWarmup && numGC() == gc0; t += warmSlice {
		pr, _ := phase(gen, pub, s, warmSlice)
		rep.tally(pr, false)
	}
}

// runUntraced is the end-to-end run: set-up timed setupRepeats times,
// then one measured phase with the program's own tracing only.
func runUntraced(s spec, seed int64, seconds int) (*report, error) {
	var dep *deployment
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			dep.close()
			dep = nil
		}
		// Each set-up starts from a collected heap with freed memory
		// returned, as the first one does.
		debug.FreeOSMemory()
		start := time.Now()
		d, err := bootCluster(s, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		dep = d
	}
	defer dep.close()
	heap := liveHeap()

	gen, pub, err := prepare(dep, s, seed, float64(seconds))
	if err != nil {
		return nil, err
	}
	defer gen.client.Close()
	rep := &report{workload: s.name, seed: seed, correct: true}
	warmup(gen, pub, s, rep)

	peakReset := resetPeakRSS()
	cpu0 := cpuTime()
	pr, pubs := phase(gen, pub, s, float64(seconds))
	cpu := cpuTime() - cpu0
	peak := peakRSS()

	sent, _, shed, failed := rep.tally(pr, true)
	p50, p99, n := latencies(pr)
	rep.result = []metric{
		{"setup_s", median(setups), "s"},
		{"goodput_rps", goodput(pr.results, slaLimit), "1/s"},
		{"cpu_ms_per_req", ms(float64(cpu)) / float64(sent), "ms"},
		{"peak_rss_mb", mb(peak), "MiB"},
		{"live_heap_mb", mb(heap), "MiB"},
	}
	rep.info = []metric{
		{"p50_ms", p50, "ms"},
		{"p99_ms", p99, "ms"},
		{"latency_samples", float64(n), "count"},
		{"error_frac", float64(failed) / float64(sent), "frac"},
		{"shed_frac", float64(shed) / float64(sent), "frac"},
	}
	if !peakReset {
		rep.info = append(rep.info, metric{"peak_rss_includes_setup", 1, "bool"})
	}
	if pub != nil {
		rep.info = append(rep.info, metric{"publish_p50_ms", publishP50(pubs), "ms"})
		rep.attempted += len(pubs)
		rep.failed += failedPublishes(pubs)
	}
	rep.info = append(rep.info, generatorMetrics(pr)...)
	return rep, nil
}

// prepare scores the request pool for a measured phase of seconds
// against the reference and connects the generator and publisher to dep.
func prepare(dep *deployment, s spec, seed int64, seconds float64) (*loadGen, *publisher, error) {
	pool, err := newRequestPool(dep.model, s, seed, min(int(s.rate*float64(seconds)), maxPool))
	if err != nil {
		return nil, nil, err
	}
	pub, err := newPublisher(dep, s, seed)
	if err != nil {
		return nil, nil, err
	}
	client, err := rpc.DialPool(dep.addr, nil, 1)
	if err != nil {
		return nil, nil, err
	}
	return &loadGen{client: client, pool: pool}, pub, nil
}

// runTraced is the per-layer run on a deployment the benchmark wraps:
// an untraced phase, then a traced phase of the same length, together
// seconds long. The traced phase's spans give the per-layer metrics; the
// difference of the two phases' median latencies is the tracing
// overhead.
func runTraced(s spec, seed int64, seconds int, spanDir string) (*report, error) {
	d, err := bootTraced(s, seed)
	if err != nil {
		return nil, err
	}
	defer d.close()
	gen, pub, err := prepare(&d.deployment, s, seed, float64(seconds)/2)
	if err != nil {
		return nil, err
	}
	defer gen.client.Close()
	rep := &report{workload: s.name, seed: seed, correct: true}
	warmup(gen, pub, s, rep)

	p0 := sampleProc()
	half := float64(seconds) / 2
	plain, _ := phase(gen, pub, s, half)
	p1 := sampleProc()
	rep.tally(plain, false)
	plainP50, _, _ := latencies(plain)

	d.collector.Reset()
	before := snapshotLayers(d)
	d.t.on.Store(true)
	start := time.Now()
	pr, pubs := phase(gen, pub, s, half)
	wall := time.Since(start)
	d.t.on.Store(false)
	d.t.pending.Wait()
	after := snapshotLayers(d)
	sent, _, _, _ := rep.tally(pr, true)
	tracedP50, _, _ := latencies(pr)

	spans := d.t.snapshot()
	rep.result = procMetrics(p0, p1, len(plain.results))
	rep.result = append(rep.result, spanMetrics(spans, sent, wall, len(d.shards))...)
	rep.result = append(rep.result, accessorMetrics(before, after, d.t, sent, wall)...)
	rep.result = append(rep.result, publishMetrics(pubs, pr.results)...)
	rep.result = append(rep.result, stackMetrics(d.collector.Gather(), spans)...)
	rep.result = append(rep.result, generatorMetrics(pr)...)
	rep.result = append(rep.result, metric{"proc.tracing_overhead_p50_ms", tracedP50 - plainP50, "ms"})
	rep.attempted += len(pubs)
	rep.failed += failedPublishes(pubs)
	rep.info = []metric{{"trace.span_drops", float64(d.collector.TotalDrops()), "count"}}

	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.tsv", s.name, seed))
	if err := d.t.writeSpans(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}
