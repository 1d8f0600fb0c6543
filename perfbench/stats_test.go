package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.1, 1}, {0.11, 2}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// 800 samples 1..800: p99 is the 792nd, leaving 8 beyond it.
	many := make([]float64, 800)
	for i := range many {
		many[i] = float64(800 - i)
	}
	if got := percentile(many, 0.99); got != 792 {
		t.Errorf("p99 of 1..800 = %v, want 792", got)
	}
}

func TestGoodputCountsOnlyCorrectResponsesWithinLimit(t *testing.T) {
	ms := time.Millisecond
	rs := []result{
		{due: 0, lat: 10 * ms, out: outOK},
		{due: 250 * ms, lat: 100 * ms, out: outOK},   // exactly at the limit: counts
		{due: 500 * ms, lat: 101 * ms, out: outOK},   // late
		{due: 750 * ms, lat: 5 * ms, out: outShed},   // shed
		{due: 1000 * ms, lat: 5 * ms, out: outWrong}, // wrong scores
		{due: 1250 * ms, lat: 5 * ms, out: outFail},
		{due: 1500 * ms, lat: 500 * ms, out: outOK}, // late; its response ends the window at 2 s
	}
	if got, want := goodput(rs, 100*ms), 2/2.0; got != want {
		t.Errorf("goodput = %v, want %v", got, want)
	}
	if got := goodput(nil, 100*ms); got != 0 {
		t.Errorf("goodput of no requests = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {140, 160}, {145, 155}}, 50},
		{"clipped to the parent", []interval{{50, 120}, {190, 260}}, 70},
		{"outside the parent", []interval{{10, 20}, {300, 400}}, 100},
		{"covering the parent", []interval{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanMetricsFromSyntheticSpans(t *testing.T) {
	us := int64(time.Microsecond)
	spans := []spanRec{
		// Request 1 alone in batch 1: frontend from 0, engine 100..1100 µs
		// with two overlapping sparse calls covering 200..700 µs.
		{id: 1, traceID: 1, layer: layMain, shard: -1, start: 0, end: 1200 * us},
		{id: 2, parent: 1, traceID: 1, layer: layFrontend, shard: -1, start: 0, end: 1150 * us},
		{id: 3, parent: 2, traceID: 1, callID: 1, layer: layEngine, shard: -1, start: 100 * us, end: 1100 * us},
		{id: 4, parent: 3, traceID: 1, callID: 11, layer: layRPC, shard: -1, start: 200 * us, end: 600 * us},
		{id: 5, parent: 3, traceID: 1, callID: 12, layer: layRPC, shard: -1, start: 300 * us, end: 700 * us},
		{id: 6, parent: 4, traceID: 1, callID: 11, layer: layHandle, shard: 0, start: 250 * us, end: 550 * us},
		{id: 7, parent: 5, traceID: 1, callID: 12, layer: layHandle, shard: 1, start: 400 * us, end: 500 * us},
		// Requests 2 and 3 coalesced into batch 2 (2 leads), no sparse
		// calls: the whole execution is engine self time.
		{id: 8, traceID: 2, layer: layFrontend, shard: -1, start: 2000 * us, end: 3000 * us},
		{id: 9, traceID: 3, layer: layFrontend, shard: -1, start: 2100 * us, end: 3000 * us},
		{id: 10, parent: 8, traceID: 2, callID: 2, layer: layEngine, shard: -1, start: 2500 * us, end: 2900 * us},
		{id: 11, parent: 9, traceID: 3, callID: 2, layer: layEngine, shard: -1, start: 2500 * us, end: 2900 * us},
	}
	got := map[string]float64{}
	for _, m := range spanMetrics(spans, 3, 10*time.Millisecond, 2) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"engine.exec_p50_ms":          0.4, // batches of 1000 and 400 µs
		"engine.exec_p99_ms":          1.0,
		"engine.self_p50_ms":          0.4, // 1000−500 and 400−0
		"engine.busy_frac":            0.14,
		"rpc.sparse.calls_per_req":    2.0 / 3,
		"rpc.sparse.call_p50_us":      400,
		"rpc.sparse.transport_p50_us": 100, // 400−300 and 400−100
		"sparse.handle_p50_us":        100,
		"sparse.handle_p99_us":        300,
		"sparse.busy_imbalance":       1.5, // 300 over a mean of 200
		"frontend.queue_wait_p50_ms":  0.4, // 100, 500 and 400 µs
		"frontend.queue_wait_p99_ms":  0.5,
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !near(g, w) {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestUnknownWorkloadFailsWithoutResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code == 0 {
		t.Fatalf("exit code 0 for an unknown workload")
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "unknown workload") {
		t.Errorf("stderr %q does not name the problem", errOut.String())
	}
}
