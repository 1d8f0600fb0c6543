package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// maxPool caps how many distinct requests a run generates and scores.
// A steady run's measured phase sends each of its requests once; the
// overload run cycles through the pool in order, so one copy never
// shares a coalesced batch with another.
const maxPool = 1024

// requestPool holds a workload's pre-encoded requests and, for each, the
// scores an in-process singular engine computes for it.
type requestPool struct {
	bodies [][]byte
	refs   [][]float32
}

// newRequestPool draws n requests from the workload's seeded stream and
// scores each with a singular core.Engine over the same model: every
// deployment must return exactly these bits.
func newRequestPool(m *model.Model, s spec, seed int64, n int) (*requestPool, error) {
	ref, err := core.NewEngine(m, sharding.Singular(&m.Config), core.EngineConfig{
		Recorder: trace.NewRecorder("reference", 1),
	})
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	p := &requestPool{bodies: make([][]byte, n), refs: make([][]float32, n)}
	type job struct {
		i   int
		req *core.RankingRequest
	}
	// The stream is drawn in order on this goroutine and scored by two
	// workers; the channel holds one request per worker so only a few
	// decoded requests are alive at once.
	const workers = 2
	jobs := make(chan job, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				if errs[w] != nil {
					continue
				}
				p.refs[j.i], errs[w] = ref.Execute(trace.Context{}, j.req)
				if errs[w] != nil {
					errs[w] = fmt.Errorf("reference score of request %d: %w", j.i, errs[w])
				}
			}
		}(w)
	}
	gen := s.generator(m.Config, seed)
	for i := 0; i < n; i++ {
		req := core.FromWorkload(gen.Next())
		p.bodies[i] = core.EncodeRankingRequest(req)
		jobs <- job{i, req}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}
