package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// deployment is one booted workload as the generator and publisher use
// it.
type deployment struct {
	model   *model.Model
	plan    *sharding.Plan
	addr    string // the main shard's RPC address
	publish func(*core.DeltaSet) (*core.PublishReport, error)
	close   func()
}

// bootCluster is the benchmark's set-up: DRM1 built, the workload's plan
// computed and the deployment booted by cluster.Boot behind the SLA
// frontend.
func bootCluster(s spec, seed int64) (*deployment, error) {
	m := model.Build(model.DRM1())
	plan, err := s.plan(&m.Config)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	cl, err := cluster.Boot(m, plan, cluster.Options{Seed: seed, Frontend: frontendConfig(), Tier: s.tier()})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	return &deployment{model: m, plan: plan, addr: cl.MainAddr(), publish: cl.Publish, close: cl.Close}, nil
}

// tracedDeployment is the same deployment built from the public
// constructors cluster.Boot uses, so the tracer can wrap the main
// handler, the frontend's executor, the engine's sparse callers and the
// sparse handlers.
type tracedDeployment struct {
	deployment
	t         *tracer
	fe        *frontend.Frontend
	shards    []*core.SparseShard
	collector *trace.Collector
}

// spanCapacity sizes each program recorder's span slab; a traced phase
// at the overload rate fits without drops.
const spanCapacity = 1 << 20

func bootTraced(s spec, seed int64) (*tracedDeployment, error) {
	// cluster.Boot relaxes the collector the same way for every
	// deployment it boots; the traced one must run under the same GC.
	debug.SetGCPercent(400)
	m := model.Build(model.DRM1())
	plan, err := s.plan(&m.Config)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	d := &tracedDeployment{t: newTracer(), collector: trace.NewCollector()}
	d.model, d.plan = m, plan
	var closers []func()
	d.close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (*tracedDeployment, error) {
		d.close()
		return nil, err
	}
	mainRec := trace.NewRecorder("main", spanCapacity)
	d.collector.Attach(mainRec)
	callers := make(map[string]rpc.Caller)
	pub := &core.Publisher{Rec: mainRec, Shards: make(map[int][]core.ShardEndpoint)}
	if plan.IsDistributed() {
		recs := make([]*trace.Recorder, plan.NumShards)
		for i := range recs {
			recs[i] = trace.NewRecorder(core.ServiceName(i+1), spanCapacity)
			d.collector.Attach(recs[i])
		}
		shards, err := core.MaterializeShardsTiered(m, plan, recs, s.tier())
		if err != nil {
			return fail(fmt.Errorf("materialize: %w", err))
		}
		d.shards = shards
		plat := platform.SCLarge()
		for i, sh := range shards {
			closers = append(closers, sh.Close)
			sh.OpComputeScale = plat.OpComputeScale
			links := plat.Network(seed + int64(i)*7919)
			srv, err := rpc.NewServer("127.0.0.1:0", &tracedHandler{sh: sh, shard: int8(i), t: d.t}, rpc.ServerConfig{
				Recorder:        recs[i],
				ResponseLink:    links.Response,
				BoilerplateCost: platform.BaseBoilerplate,
				ComputeScale:    plat.BoilerplateScale,
			})
			if err != nil {
				return fail(err)
			}
			closers = append(closers, func() { srv.Close() })
			cl, err := rpc.Dial(srv.Addr(), links.Request)
			if err != nil {
				return fail(err)
			}
			closers = append(closers, func() { cl.Close() })
			callers[sh.ShardName] = &tracedCaller{inner: cl, t: d.t}
			ctrl, err := rpc.DialPool(srv.Addr(), nil, 1)
			if err != nil {
				return fail(err)
			}
			closers = append(closers, func() { ctrl.Close() })
			pub.Shards[i+1] = []core.ShardEndpoint{{Service: sh.ShardName, Addr: srv.Addr(), Caller: ctrl}}
		}
	}
	eng, err := core.NewEngine(m, plan, core.EngineConfig{
		Recorder: mainRec,
		ClientFor: func(service string) (rpc.Caller, error) {
			c, ok := callers[service]
			if !ok {
				return nil, fmt.Errorf("no client for %s", service)
			}
			return c, nil
		},
	})
	if err != nil {
		return fail(err)
	}
	pub.Engine = eng
	d.publish = pub.Publish
	d.fe = frontend.New(&tracedExec{eng: eng, t: d.t}, *frontendConfig())
	closers = append(closers, d.fe.Close)
	srv, err := rpc.NewServer("127.0.0.1:0", &tracedMain{svc: &frontend.Service{F: d.fe, Rec: mainRec}, t: d.t},
		rpc.ServerConfig{Recorder: mainRec, BoilerplateCost: platform.BaseBoilerplate})
	if err != nil {
		return fail(err)
	}
	closers = append(closers, func() { srv.Close() })
	d.addr = srv.Addr()
	return d, nil
}

// identityDeltas builds the publish workload's delta set: on every
// sparse shard, its largest net2 table (whole or a partition of one),
// with rows sampled from seed and set to the values they already hold,
// so published versions never change a score.
func identityDeltas(m *model.Model, plan *sharding.Plan, rows int, seed int64) ([]core.TableDelta, error) {
	picked := make(map[int]bool)
	for _, a := range plan.Shards {
		ids := append([]int(nil), a.Tables...)
		for _, p := range a.Parts {
			ids = append(ids, p.TableID)
		}
		best := -1
		for _, id := range ids {
			t := m.Config.Tables[id]
			if t.Net == "net2" && (best < 0 || t.Rows > m.Config.Tables[best].Rows) {
				best = id
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("shard %d holds no net2 table", a.Shard)
		}
		picked[best] = true
	}
	ids := make([]int, 0, len(picked))
	for id := range picked {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rng := rand.New(rand.NewSource(seed))
	deltas := make([]core.TableDelta, 0, len(ids))
	for _, id := range ids {
		tab, ok := m.Tables[id].(*embedding.Dense)
		if !ok {
			return nil, fmt.Errorf("table %d is %T, not fp32", id, m.Tables[id])
		}
		d := core.TableDelta{TableID: id}
		for _, r := range rng.Perm(tab.NumRows())[:min(rows, tab.NumRows())] {
			d.Rows = append(d.Rows, int32(r))
			d.Data = append(d.Data, tab.Row(r)...)
		}
		deltas = append(deltas, d)
	}
	return deltas, nil
}
