package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/serve"
)

// outcome classifies one scheduled request.
type outcome uint8

const (
	outOK    outcome = iota // scores returned and bitwise equal to the reference
	outShed                 // deliberately shed (frontend SLA drop or transport overload)
	outFail                 // hard failure: transport error, remote error, undecodable reply
	outWrong                // scores returned but not equal to the reference
)

// result is one scheduled request as the generator saw it. Offsets are
// from the phase's first due time.
type result struct {
	due  time.Duration // when the schedule said to send it
	late time.Duration // how long after due it was actually sent
	lat  time.Duration // response arrival − due
	out  outcome
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	start   time.Time // the first request's due time
	results []result
	// inflightMax is the most requests outstanding at once.
	inflightMax int64
	// firstErr describes the first hard failure or mismatch, if any.
	firstErr string
}

// loadGen is the benchmark's open-loop generator: it issues requests on
// a fixed schedule over one connection and times each from its due time,
// so a stall delays every request scheduled behind it and shows in the
// latencies instead of slowing the arrivals.
type loadGen struct {
	client *rpc.Client
	pool   *requestPool
	// seq numbers requests across phases, for unique trace and call ids.
	seq uint64
}

// run sends n requests, one every 1/rate seconds, and waits for every
// response. Request i is pool entry i modulo the pool's size, so a phase
// no longer than the pool sends every request once. onSend, when set, is
// called on the generator goroutine after request i is issued.
func (g *loadGen) run(n int, rate float64, onSend func(i int)) *phaseResult {
	interval := time.Duration(float64(time.Second) / rate)
	pr := &phaseResult{results: make([]result, n)}
	var inflight atomic.Int64
	var errOnce sync.Once
	var wg sync.WaitGroup
	pr.start = time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := pr.start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		g.seq++
		k := i % len(g.pool.bodies)
		sent := time.Now()
		call := g.client.Go(&rpc.Request{
			Method: core.RankMethod, TraceID: g.seq, CallID: g.seq, Body: g.pool.bodies[k],
		})
		if n := inflight.Add(1); n > pr.inflightMax {
			pr.inflightMax = n
		}
		r := &pr.results[i]
		r.due, r.late = due.Sub(pr.start), sent.Sub(due)
		wg.Add(1)
		go func(ref []float32) {
			defer wg.Done()
			<-call.Done
			r.lat = time.Since(due)
			inflight.Add(-1)
			r.out = classify(call, ref)
			if r.out == outFail || r.out == outWrong {
				errOnce.Do(func() { pr.firstErr = describe(call, r.out) })
			}
		}(g.pool.refs[k])
		if onSend != nil {
			onSend(i)
		}
	}
	wg.Wait()
	return pr
}

// classify checks one finished call against its reference scores.
func classify(call *rpc.Call, ref []float32) outcome {
	if call.Err != nil {
		if serve.IsFallback(call.Err) {
			return outShed
		}
		return outFail
	}
	resp, err := core.DecodeRankingResponse(call.Resp.Body)
	if err != nil {
		return outFail
	}
	if !sameBits(resp.Scores, ref) {
		return outWrong
	}
	return outOK
}

func describe(call *rpc.Call, out outcome) string {
	switch {
	case out == outWrong:
		return fmt.Sprintf("request %d: scores differ from the reference", call.Req.CallID)
	case call.Err != nil:
		return fmt.Sprintf("request %d: %v", call.Req.CallID, call.Err)
	}
	return fmt.Sprintf("request %d: undecodable response", call.Req.CallID)
}
