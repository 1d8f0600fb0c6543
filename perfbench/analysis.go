package main

import (
	"time"

	"repro/internal/frontend"
	"repro/internal/trace"
)

// layerSnapshot is what the public accessors report at one instant; the
// traced phase's per-layer counts are differences of two snapshots.
type layerSnapshot struct {
	fe           frontend.Stats
	hits, misses int64
	lookups      int64
}

func snapshotLayers(d *tracedDeployment) layerSnapshot {
	s := layerSnapshot{fe: d.fe.Stats()}
	for _, sh := range d.shards {
		ts := sh.TierSnapshot()
		s.hits += ts.Hits
		s.misses += ts.Misses
		s.lookups += sh.LoadSnapshot(false).TotalLookups()
	}
	return s
}

// spanMetrics derives the per-layer timings of a traced phase from the
// benchmark's spans. requests is the number of requests the phase sent
// and wall its length.
func spanMetrics(spans []spanRec, requests int, wall time.Duration, shards int) []metric {
	var exec, self, waits, calls, transport, handles []float64
	var busy int64
	shardBusy := make([]int64, shards)
	byID := make(map[uint64]*spanRec, len(spans))
	children := make(map[uint64][]interval) // span id → its sparse calls
	handleOf := make(map[uint64]int64)      // sparse call id → handle time
	for i := range spans {
		s := &spans[i]
		byID[s.id] = s
		switch s.layer {
		case layRPC:
			children[s.parent] = append(children[s.parent], s.interval())
		case layHandle:
			handleOf[s.callID] = s.dur()
			handles = append(handles, float64(s.dur()))
			if int(s.shard) < shards {
				shardBusy[s.shard] += s.dur()
			}
		}
	}
	for _, s := range spans {
		switch s.layer {
		case layEngine:
			if p, ok := byID[s.parent]; ok && p.layer == layFrontend {
				waits = append(waits, float64(s.start-p.start))
			}
		case layRPC:
			calls = append(calls, float64(s.dur()))
			if h, ok := handleOf[s.callID]; ok {
				transport = append(transport, float64(s.dur()-h))
			}
		}
	}
	for _, l := range batchLeaders(spans) {
		exec = append(exec, float64(l.dur()))
		self = append(self, float64(selfTime(l.interval(), children[l.id])))
		busy += l.dur()
	}
	perReq := func(n float64) float64 { return n / float64(max(requests, 1)) }
	var imbalance float64
	if shards > 0 {
		var sum, top int64
		for _, b := range shardBusy {
			sum += b
			top = max(top, b)
		}
		if sum > 0 {
			imbalance = float64(top) / (float64(sum) / float64(shards))
		}
	}
	return []metric{
		{"engine.exec_p50_ms", ms(median(exec)), "ms"},
		{"engine.exec_p99_ms", ms(percentile(exec, 0.99)), "ms"},
		{"engine.self_p50_ms", ms(median(self)), "ms"},
		{"engine.busy_frac", float64(busy) / float64(wall), "frac"},
		{"rpc.sparse.calls_per_req", perReq(float64(len(calls))), "count"},
		{"rpc.sparse.call_p50_us", us(median(calls)), "us"},
		{"rpc.sparse.call_p99_us", us(percentile(calls, 0.99)), "us"},
		{"rpc.sparse.transport_p50_us", us(median(transport)), "us"},
		{"sparse.handle_p50_us", us(median(handles)), "us"},
		{"sparse.handle_p99_us", us(percentile(handles, 0.99)), "us"},
		{"sparse.busy_imbalance", imbalance, "ratio"},
		{"frontend.queue_wait_p50_ms", ms(median(waits)), "ms"},
		{"frontend.queue_wait_p99_ms", ms(percentile(waits, 0.99)), "ms"},
	}
}

// batchLeaders returns each coalesced batch's first engine span (the
// lowest id), keyed by batch: the batch's sparse calls name it as their
// parent, and the program records the batch's operator spans under its
// trace id.
func batchLeaders(spans []spanRec) map[uint64]spanRec {
	leaders := make(map[uint64]spanRec)
	for _, s := range spans {
		if l, ok := leaders[s.callID]; s.layer == layEngine && (!ok || s.id < l.id) {
			leaders[s.callID] = s
		}
	}
	return leaders
}

// stackMetrics is the paper's Fig. 8 latency stack: per-component
// medians of trace.Analyze over the spans the program itself records.
// Only the traces of batch leaders count: the engine records a
// coalesced batch's operator and RPC spans under its first request's
// trace id only, and shed requests execute nothing. ours are the
// benchmark's spans, which identify the leaders.
func stackMetrics(spans []trace.Span, ours []spanRec) []metric {
	lead := make(map[uint64]bool)
	for _, l := range batchLeaders(ours) {
		lead[l.traceID] = true
	}
	var bs []trace.RequestBreakdown
	for _, b := range trace.Analyze(spans, "main") {
		if lead[b.TraceID] {
			bs = append(bs, b)
		}
	}
	comp := func(c trace.Component) float64 {
		return 1e3 * median(trace.ComponentSeconds(bs, c))
	}
	return []metric{
		{"stack.dense_ms", comp(trace.CompDenseOps), "ms"},
		{"stack.embedded_ms", comp(trace.CompEmbedded), "ms"},
		{"stack.main_serde_ms", comp(trace.CompMainSerDe), "ms"},
		{"stack.main_service_ms", comp(trace.CompMainService), "ms"},
		{"stack.main_net_overhead_ms", comp(trace.CompMainNetOverhead), "ms"},
		{"stack.bound_network_ms", comp(trace.CompBoundNetwork), "ms"},
		{"stack.bound_sparse_ops_ms", comp(trace.CompBoundSparseOps), "ms"},
		{"stack.bound_serde_ms", comp(trace.CompBoundSerDe), "ms"},
		{"stack.cpu_total_ms", comp(trace.CompTotalCPU), "ms"},
	}
}

// accessorMetrics are the per-layer counts the program's public
// accessors give over the traced phase.
func accessorMetrics(before, after layerSnapshot, t *tracer, requests int, wall time.Duration) []metric {
	fe := after.fe
	b := before.fe
	batches := float64(fe.Batches - b.Batches)
	frac := func(n uint64) float64 { return float64(n) / float64(max(requests, 1)) }
	perBatch := func(n uint64) float64 {
		if batches == 0 {
			return 0
		}
		return float64(n) / batches
	}
	hitFrac := 0.0
	if h, m := after.hits-before.hits, after.misses-before.misses; h+m > 0 {
		hitFrac = float64(h) / float64(h+m)
	}
	dupFrac := 0.0
	if n := t.rowLookups.Load(); n > 0 {
		dupFrac = float64(t.rowDups.Load()) / float64(n)
	}
	perReq := func(n int64) float64 { return float64(n) / float64(max(requests, 1)) }
	qf, bu, dl := fe.ShedQueueFull-b.ShedQueueFull, fe.ShedBudget-b.ShedBudget, fe.ShedDeadline-b.ShedDeadline
	return []metric{
		{"rpc.sparse.req_bytes_per_req", perReq(t.reqBytes.Load()), "B"},
		{"rpc.sparse.resp_bytes_per_req", perReq(t.respBytes.Load()), "B"},
		{"rpc.sparse.errors", float64(t.rpcErrors.Load()), "count"},
		{"sparse.lookups_per_req", perReq(after.lookups - before.lookups), "count"},
		{"frontend.batch_requests_mean", perBatch(fe.BatchedRequests - b.BatchedRequests), "count"},
		{"frontend.batch_items_mean", perBatch(fe.BatchedItems - b.BatchedItems), "count"},
		{"frontend.shed_frac", frac(qf + bu + dl), "frac"},
		{"frontend.shed_queue_full_frac", frac(qf), "frac"},
		{"frontend.shed_budget_frac", frac(bu), "frac"},
		{"frontend.shed_deadline_frac", frac(dl), "frac"},
		{"frontend.exec_busy_frac", float64(fe.ExecBusyNs-b.ExecBusyNs) / float64(wall), "frac"},
		{"embedding.cache_hit_frac", hitFrac, "frac"},
		{"embedding.batch_dup_frac", dupFrac, "frac"},
	}
}

// publishMetrics summarizes a phase's publishes and the reads that ran
// while one was in progress.
func publishMetrics(evs []pubEvent, rs []result) []metric {
	var during []float64
	var rows int
	var bytes int64
	var busy time.Duration
	for _, e := range evs {
		if e.err == nil {
			rows += e.rows
			bytes += e.bytes
			busy += e.end - e.start
		}
	}
	for _, r := range rs {
		if r.out != outOK {
			continue
		}
		for _, e := range evs {
			if r.due < e.end && r.due+r.lat > e.start {
				during = append(during, float64(r.lat))
				break
			}
		}
	}
	rowRate := 0.0
	if busy > 0 {
		rowRate = float64(rows) / busy.Seconds()
	}
	return []metric{
		{"publish.p50_ms", publishP50(evs), "ms"},
		{"publish.rows_per_s", rowRate, "1/s"},
		{"publish.bytes", float64(bytes), "B"},
		{"publish.errors", float64(failedPublishes(evs)), "count"},
		{"publish.read_p99_during_ms", ms(percentile(during, 0.99)), "ms"},
	}
}

// publishP50 is the median duration of the successful publishes, in ms.
func publishP50(evs []pubEvent) float64 {
	var durs []float64
	for _, e := range evs {
		if e.err == nil {
			durs = append(durs, float64(e.end-e.start))
		}
	}
	return ms(median(durs))
}

func failedPublishes(evs []pubEvent) int {
	n := 0
	for _, e := range evs {
		if e.err != nil {
			n++
		}
	}
	return n
}

// procMetrics are the process-wide allocation and GC costs of a phase.
func procMetrics(before, after procSample, requests int) []metric {
	n := float64(max(requests, 1))
	gcFrac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		gcFrac = (after.gcCPU - before.gcCPU) / cpu
	}
	return []metric{
		{"proc.allocs_per_req", float64(after.mallocs-before.mallocs) / n, "count"},
		{"proc.alloc_kb_per_req", float64(after.allocBytes-before.allocBytes) / 1024 / n, "KiB"},
		{"proc.gc_cpu_frac", gcFrac, "frac"},
	}
}
