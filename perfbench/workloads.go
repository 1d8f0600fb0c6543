package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// slaLimit is the benchmark's SLA: a response counts toward goodput
// when it arrives within this long of its request's due time.
const slaLimit = 100 * time.Millisecond

// frontendBudget is the frontend's per-request budget, counted from
// Submit. It leaves a fifth of slaLimit for what the frontend does not
// see: the request's wait for the main server, decoding, encoding and the
// reply. With the budget equal to the SLA, an overloaded frontend admits
// requests that then arrive just past the limit, and goodput swung by
// a sixth between runs for that reason alone.
const frontendBudget = 80 * time.Millisecond

// spec is one traffic mix. Every workload serves DRM1 through the SLA
// frontend and is driven open loop on a fixed schedule; README.md gives
// the reason for each.
type spec struct {
	name string
	// shards is the number of load-balanced sparse shards; 0 serves the
	// singular plan with in-line SLS.
	shards int
	// zipf, when > 1, draws raw sparse IDs Zipf(zipf)-distributed instead
	// of uniform.
	zipf float64
	// cacheMB, when > 0, fronts every sparse shard's fp32 tables with a
	// hot-row cache of this many MB.
	cacheMB float64
	// rate is the offered load in requests per second.
	rate float64
	// publishEvery issues one identity-delta publish per this many
	// scheduled requests (0: no publishes).
	publishEvery int
}

// specs lists every workload. BENCHMARK.json runs all but
// lb2-zipf-overload, whose goodput follows the CPU the host grants the
// process too closely to gate a change (README.md).
var specs = []spec{
	{name: "lb2-steady", shards: 2, rate: 40},
	{name: "singular-steady", shards: 0, rate: 40},
	{name: "lb2-zipf-cache", shards: 2, zipf: 1.2, cacheMB: 8, rate: 40},
	{name: "lb2-publish", shards: 2, rate: 40, publishEvery: 40},
	{name: "lb2-zipf-overload", shards: 2, zipf: 1.2, cacheMB: 8, rate: 300},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// frontendConfig is the one frontend configuration every workload
// serves behind: frontendBudget, no gather window (batches form only
// from backlog, so an idle frontend adds no latency), a bounded queue
// that keeps an overloaded run's memory flat, and at most 4 requests per
// batch. With the default 16, a full batch of DRM1 requests runs for
// about as long as the whole budget, so under overload most admitted
// requests land just either side of the limit and goodput swung by a
// fifth from run to run.
func frontendConfig() *frontend.Config {
	return &frontend.Config{Budget: frontendBudget, MaxQueue: 64, MaxBatchRequests: 4}
}

// tier returns the sparse shards' tiered-store config (nil: plain fp32).
// A cache over fp32 cold tables keeps scores bitwise equal to the
// reference.
func (s spec) tier() *core.TierConfig {
	if s.cacheMB <= 0 {
		return nil
	}
	return &core.TierConfig{CacheMB: s.cacheMB}
}

// generator returns the workload's seeded request stream.
func (s spec) generator(cfg model.Config, seed int64) *workload.Generator {
	g := workload.NewGenerator(cfg, seed)
	if s.zipf > 1 {
		g.EnableRowSkew(s.zipf)
	}
	return g
}

// plan builds the workload's sharding plan. Load-balanced plans weigh
// tables by pooling estimated from a fixed-seed sample, so every run of
// a workload shards identically whatever its request seed.
func (s spec) plan(cfg *model.Config) (*sharding.Plan, error) {
	if s.shards == 0 {
		return sharding.Singular(cfg), nil
	}
	pooling := workload.EstimatePooling(workload.NewGenerator(*cfg, 991), 200)
	return sharding.LoadBalanced(cfg, s.shards, pooling)
}
