package main

import (
	"sync"
	"time"

	"repro/internal/core"
)

// deltaRows is how many rows each table of an identity publish carries.
const deltaRows = 256

// pubEvent is one publish, with times as offsets from its phase's start.
type pubEvent struct {
	start, end time.Duration
	rows       int
	bytes      int64
	err        error
}

// publisher issues the publish workload's identity deltas beside the
// reads: the generator triggers one publish every spec.publishEvery
// scheduled requests and a single goroutine runs them in order, so the
// number of publishes in a phase is fixed by the schedule.
type publisher struct {
	dep     *deployment
	deltas  []core.TableDelta
	every   int
	version uint64

	trig   chan struct{}
	wg     sync.WaitGroup
	start  time.Time
	events []pubEvent
}

// newPublisher returns nil for workloads without publishes.
func newPublisher(dep *deployment, s spec, seed int64) (*publisher, error) {
	if s.publishEvery == 0 {
		return nil, nil
	}
	deltas, err := identityDeltas(dep.model, dep.plan, deltaRows, seed)
	if err != nil {
		return nil, err
	}
	return &publisher{dep: dep, deltas: deltas, every: s.publishEvery}, nil
}

// begin starts a phase of n scheduled requests and returns the hook the
// generator calls after each send.
func (p *publisher) begin(n int) func(int) {
	if p == nil {
		return nil
	}
	p.events = nil
	// Buffered for every trigger the phase can send, so the generator
	// never blocks on a slow publish.
	p.trig = make(chan struct{}, n/p.every+1)
	p.start = time.Now()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for range p.trig {
			p.version++
			t0 := time.Now()
			rep, err := p.dep.publish(&core.DeltaSet{Version: p.version, Tables: p.deltas})
			ev := pubEvent{start: t0.Sub(p.start), end: time.Since(p.start), err: err}
			if rep != nil {
				ev.rows, ev.bytes = rep.RowsSent, rep.Bytes
			}
			p.events = append(p.events, ev)
		}
	}()
	return func(i int) {
		if (i+1)%p.every == 0 {
			p.trig <- struct{}{}
		}
	}
}

// finish waits for the phase's publishes and returns them, with times
// rebased onto the generator phase that started at phaseStart.
func (p *publisher) finish(phaseStart time.Time) []pubEvent {
	if p == nil {
		return nil
	}
	close(p.trig)
	p.wg.Wait()
	shift := p.start.Sub(phaseStart)
	for i := range p.events {
		p.events[i].start += shift
		p.events[i].end += shift
	}
	return p.events
}
