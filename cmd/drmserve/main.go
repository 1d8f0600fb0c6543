// Command drmserve runs one shard of a distributed recommendation
// inference deployment as a standalone process: either the main shard
// (dense layers + RPC fan-out) or one sparse shard (embedding tables).
//
// Every process derives the identical sharding plan from the same flags
// (models and pooling estimation are deterministic), so a deployment is
// just N+1 processes agreeing on -model/-strategy/-shards:
//
//	drmserve -role sparse -shard 1 -model DRM1 -strategy load-bal -shards 2 -listen 127.0.0.1:7101
//	drmserve -role sparse -shard 2 -model DRM1 -strategy load-bal -shards 2 -listen 127.0.0.1:7102
//	drmserve -role main -model DRM1 -strategy load-bal -shards 2 \
//	    -listen 127.0.0.1:7100 -peers sparse1=127.0.0.1:7101,sparse2=127.0.0.1:7102
//
// Then drive it with cmd/replayer against 127.0.0.1:7100.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var models modelFlags
	var (
		role      = flag.String("role", "main", "shard role: main, sparse, or coserve")
		shardNum  = flag.Int("shard", 1, "sparse shard number (1-based)")
		strategy  = flag.String("strategy", "load-bal", "sharding strategy")
		shards    = flag.Int("shards", 2, "sparse shard count")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		modelFile = flag.String("model-file", "", "load a serialized model (from shardtool -save-model) instead of building")
		shardDir  = flag.String("shard-dir", "", "sparse role: serve from the v2 shard file <dir>/<model>.shardN, mmap-backed (shardtool export-v2)")
		peers     = flag.String("peers", "", "main role: comma-separated sparseN=host:port bindings; repeat a name to add hedge replicas")
		netDelay  = flag.Bool("netsim", false, "inject data-center link latency")

		// SLA-aware frontend (main role). Any of
		// -batch-wait/-batch-reqs/-max-queue/-sla enables it; all unset,
		// the main shard serves one request per call.
		batchWait = flag.Duration("batch-wait", 0, "dynamic batching window (enables the serving frontend)")
		batchReqs = flag.Int("batch-reqs", 0, "max requests coalesced per engine execution, default 16 (enables the serving frontend)")
		maxQueue  = flag.Int("max-queue", 0, "bounded admission queue depth (enables the serving frontend)")
		slaBudget = flag.Duration("sla", 0, "per-request SLA budget for admission control (enables the serving frontend)")
		hedge     = flag.Duration("hedge", 0, "hedge sparse RPCs against a peer replica after this delay (needs repeated -peers names)")
		maxInFly  = flag.Int("max-inflight", 0, "main role: reject requests beyond this many in flight (0 = unbounded)")

		// Health-aware replica management (main role, with hedge
		// replicas): eject a replica from the rotation after consecutive
		// failures, re-admit it through probation probes.
		healthFails = flag.Int("health-fails", 0, "eject a hedge replica after this many consecutive failures (0 disables; needs repeated -peers names)")
		healthProbe = flag.Duration("health-probe", 0, "probation probe interval for ejected replicas (default 250ms)")

		// Online resharding (main role): periodically collect the sparse
		// shards' measured load and migrate tables live toward balance.
		rebalEvery = flag.Duration("rebalance-every", 0, "main role: run a capacity-driven rebalance pass at this interval (0 disables)")
		moveBudget = flag.Int("move-budget", 4, "max table moves per rebalance pass")

		// Online model freshness (main role): periodically publish a
		// versioned delta set to every sparse peer over the
		// sparse.stage.* row-staging protocol.
		publishEvery = flag.Duration("publish-every", 0, "main role: publish an identity delta set (freshness load, no score impact) at this interval (0 disables)")
		publishRows  = flag.Int("publish-rows", 16, "rows republished per table per publish tick")

		// Tiered embedding storage (sparse role): a hot-row cache byte
		// budget in front of a quantized cold tier.
		cacheMB   = flag.Float64("cache-mb", 0, "sparse role: hot-row cache budget in MiB, apportioned across tables by measured load (0 disables)")
		coldPrec  = flag.String("cold-precision", "fp32", "sparse role: cold-tier storage precision: fp32, fp16, or int8")
		errBudget = flag.Float64("error-budget", 0, "sparse role: max quantization error as a fraction of value scale (0 = default 1/250)")

		// Dense compute engine (main role runs the MLP stacks): per-GEMM
		// worker fan-out and row-tile height. Outputs are bitwise
		// identical at every setting.
		densePar   = flag.Int("dense-par", 0, "dense GEMM workers per multiply: 0 = GOMAXPROCS, 1 = serial")
		gemmBlock  = flag.Int("gemm-block", 0, "dense GEMM row-tile height per worker claim (0 = default)")
		kernelName = flag.String("kernel", "", "compute kernel: auto, generic, or vector (default auto; REPRO_KERNEL env sets the same)")

		// Multi-model co-serving (coserve role): every -model becomes one
		// hosted tenant behind a shared front door, with an elastic
		// scheduler moving replica capacity between them.
		capacity     = flag.Float64("capacity", 0, "coserve role: fleet hardware in units (sparse servers); 0 = exactly the sum of initial allocations")
		elasticEvery = flag.Duration("elastic-every", 0, "coserve role: elastic scheduler tick (0 disables autonomous reallocation)")
		scale        = flag.String("scale", "", "coserve role: force MODEL=N serving replicas after -scale-after (the CI smoke's forced scale-up)")
		scaleAfter   = flag.Duration("scale-after", 2*time.Second, "coserve role: delay before applying -scale")

		// Live telemetry: the obs registry aggregates per-stage counters
		// and latency histograms; sampled request tracing adds end-to-end
		// stage breakdowns for one of every -trace-sample requests.
		metricsAddr = flag.String("metrics-addr", "", "serve live metrics over HTTP: /metrics (text), /metrics.json, /traces, /debug/pprof/ (empty disables)")
		traceSample = flag.Int("trace-sample", 0, "main role: live-sample one of every N requests into a stage-breakdown trace (0 disables; deadline misses always sampled)")
		metricsLog  = flag.Duration("metrics-log", 0, "log a metrics snapshot diff to stderr at this interval (0 disables)")
	)
	flag.Var(&models, "model", "model to serve: DRM1, DRM2, DRM3; -role coserve takes repeated tenant specs NAME[=MODEL][:key=val,...] (keys: sla, shards, strategy, replicas, slots, min, max, queue, batch-wait, batch-reqs)")
	flag.Parse()
	tensor.SetParallelism(*densePar)
	tensor.SetBlockRows(*gemmBlock)
	if *kernelName != "" {
		k, err := tensor.KernelFromString(*kernelName)
		if err != nil {
			fatal(err)
		}
		tensor.SetKernel(k)
	}

	scaleModel, scaleTo, err := parseScale(*scale)
	if err != nil {
		fatal(err)
	}

	// The single-model roles derive one model and plan from the flags;
	// coserve builds a model and plan per tenant spec instead.
	var m *model.Model
	var plan *sharding.Plan
	var tier *core.TierConfig
	modelName := models.primary()
	if *role != "coserve" {
		if err := model.CheckName(modelName); err != nil {
			fatal(err)
		}
		if *modelFile != "" {
			f, err := os.Open(*modelFile)
			if err != nil {
				fatal(err)
			}
			m, err = model.Load(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			if m.Config.Name != modelName {
				fatal(fmt.Errorf("model file holds %s, flag says %s", m.Config.Name, modelName))
			}
		}
		cfg := model.ByName(modelName)
		if m != nil {
			cfg = m.Config
		}
		pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 991), 200)
		plan, err = buildPlan(&cfg, *strategy, *shards, pooling)
		if err != nil {
			fatal(err)
		}
		if m == nil {
			m = model.Build(cfg)
		}
		tier, err = buildTier(&cfg, *cacheMB, *coldPrec, *errBudget)
		if err != nil {
			fatal(err)
		}
	}

	// The registry only pays for itself when something reads it; with no
	// exporter and no tracing it discards, and every instrumented path in
	// the process degrades to a nil-handle branch.
	reg := obs.Discard()
	if *metricsAddr != "" || *metricsLog > 0 || *traceSample > 0 {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *traceSample > 0 {
		tracer = obs.NewTracer(reg, obs.TracerConfig{SampleEvery: *traceSample, OnDeadlineMiss: true})
	}

	var srv *rpc.Server
	shutdown := func() {}
	switch *role {
	case "sparse":
		if *shardDir != "" {
			srv, shutdown, err = serveSparseFromDir(*shardDir, modelName, *shardNum, *listen, *netDelay, tier, reg)
			break
		}
		srv, err = serveSparse(m, plan, *shardNum, *listen, *netDelay, tier, reg)
	case "main":
		opts := mainOptions{
			batchWait:      *batchWait,
			batchReqs:      *batchReqs,
			maxQueue:       *maxQueue,
			sla:            *slaBudget,
			hedge:          *hedge,
			maxInFlight:    *maxInFly,
			healthFails:    *healthFails,
			healthProbe:    *healthProbe,
			rebalanceEvery: *rebalEvery,
			moveBudget:     *moveBudget,
			publishEvery:   *publishEvery,
			publishRows:    *publishRows,
			obs:            reg,
			tracer:         tracer,
		}
		srv, shutdown, err = serveMain(m, plan, *listen, *peers, *netDelay, opts)
	case "coserve":
		defaults := tenantFlagSpec{
			sla: *slaBudget, queue: *maxQueue,
			batchWait: *batchWait, batchReqs: *batchReqs,
			shards: *shards, strategy: *strategy,
		}
		var fl *cluster.Fleet
		fl, err = serveCoserve([]string(models), defaults, coserveOptions{
			listen: *listen, capacity: *capacity, every: *elasticEvery,
			hedge: *hedge, healthFails: *healthFails, healthProbe: *healthProbe,
			maxInFlight: *maxInFly, obs: reg,
		})
		if err == nil {
			shutdown = fl.Close
			if scaleModel != "" {
				go forceScaleAfter(fl, scaleModel, scaleTo, *scaleAfter)
			}
		}
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fatal(err)
	}
	if *metricsAddr != "" {
		bound, stopHTTP, merr := obs.Serve(*metricsAddr, reg, tracer)
		if merr != nil {
			if srv != nil {
				srv.Close()
			}
			shutdown()
			fatal(merr)
		}
		fmt.Printf("drmserve: metrics on http://%s/metrics (/metrics.json, /traces, /debug/pprof/)\n", bound)
		prev := shutdown
		shutdown = func() { stopHTTP(); prev() }
	}
	if *metricsLog > 0 {
		stopLog := obs.StartLogger(reg, os.Stderr, *metricsLog)
		prev := shutdown
		shutdown = func() { stopLog(); prev() }
	}
	switch {
	case *role == "coserve":
		// serveCoserve already printed the fleet banner.
	case *shardDir != "":
		fmt.Printf("drmserve: sparse shard (mmap from %s) on %s\n", *shardDir, srv.Addr())
	default:
		fmt.Printf("drmserve: %s shard serving %s (%s) on %s\n", *role, modelName, plan.Name(), srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if srv != nil {
		srv.Close()
	}
	shutdown()
}

// buildTier translates the tiered-storage flags into a shard tier
// config; nil when tiering is entirely off.
func buildTier(cfg *model.Config, cacheMB float64, coldPrec string, errBudget float64) (*core.TierConfig, error) {
	prec, err := sharding.ParsePrecision(coldPrec)
	if err != nil {
		return nil, err
	}
	if cacheMB < 0 {
		return nil, fmt.Errorf("-cache-mb %g < 0", cacheMB)
	}
	if cacheMB == 0 && prec == sharding.PrecisionFP32 {
		return nil, nil
	}
	return &core.TierConfig{
		CacheMB: cacheMB,
		Plan:    sharding.PlanTiers(cfg, sharding.TierOptions{ColdPrecision: prec, ErrorBudget: errBudget}),
	}, nil
}

// serveSparseFromDir boots a sparse shard from its v2 shard file inside
// dir, serving lookups out of mmap-backed storage where the platform
// allows — the paper's publish-then-load flow without regenerating the
// model. The returned shutdown releases the mapping (after the server).
func serveSparseFromDir(dir, modelName string, shard int, listen string, sim bool, tier *core.TierConfig, reg *obs.Registry) (*rpc.Server, func(), error) {
	path := core.ShardFilePath(dir, modelName, shard)
	rec := trace.NewRecorder(core.ServiceName(shard), 1<<16)
	sh, got, closer, err := core.OpenShardFile(path, rec)
	if err != nil {
		return nil, nil, err
	}
	if got != shard {
		sh.Close()
		closer.Close()
		return nil, nil, fmt.Errorf("%s holds shard %d, -shard says %d", path, got, shard)
	}
	if tier != nil {
		sh.SetTier(tier)
	}
	sh.SetObs(reg)
	cfg := rpc.ServerConfig{Recorder: rec, BoilerplateCost: platform.BaseBoilerplate}
	if sim {
		cfg.ResponseLink = platform.SCLarge().Network(int64(shard)).Response
	}
	fmt.Printf("drmserve: %s mapped from %s: %d tables/parts, %.1f MiB\n",
		sh.ShardName, path, sh.NumTables(), float64(sh.Bytes())/(1<<20))
	srv, err := rpc.NewServer(listen, sh, cfg)
	if err != nil {
		sh.Close()
		closer.Close()
		return nil, nil, err
	}
	return srv, func() { closer.Close() }, nil
}

func serveSparse(m *model.Model, plan *sharding.Plan, shard int, listen string, sim bool, tier *core.TierConfig, reg *obs.Registry) (*rpc.Server, error) {
	if !plan.IsDistributed() {
		return nil, fmt.Errorf("singular plans have no sparse shards")
	}
	if shard < 1 || shard > plan.NumShards {
		return nil, fmt.Errorf("shard %d outside [1, %d]", shard, plan.NumShards)
	}
	recs := make([]*trace.Recorder, plan.NumShards)
	for i := range recs {
		recs[i] = trace.NewRecorder(core.ServiceName(i+1), 1<<16)
	}
	all, err := core.MaterializeShardsTiered(m, plan, recs, tier)
	if err != nil {
		return nil, err
	}
	sh := all[shard-1]
	sh.SetObs(reg)
	cfg := rpc.ServerConfig{Recorder: recs[shard-1], BoilerplateCost: platform.BaseBoilerplate}
	if sim {
		cfg.ResponseLink = platform.SCLarge().Network(int64(shard)).Response
	}
	fmt.Printf("drmserve: %s holds %d tables/parts, %.1f MiB\n", sh.ShardName, sh.NumTables(), float64(sh.Bytes())/(1<<20))
	if tier != nil {
		ts := sh.TierSnapshot()
		fmt.Printf("drmserve: tiered store: %d fp32 / %d fp16 / %d int8 tables, %.1f MiB cold, %.1f MiB cache budget\n",
			ts.FP32, ts.FP16, ts.Int8, float64(ts.ColdBytes)/(1<<20), tier.CacheMB)
	}
	return rpc.NewServer(listen, sh, cfg)
}

// mainOptions carries the main role's serving-frontend tuning.
type mainOptions struct {
	batchWait      time.Duration
	batchReqs      int
	maxQueue       int
	sla            time.Duration
	hedge          time.Duration
	maxInFlight    int
	healthFails    int
	healthProbe    time.Duration
	rebalanceEvery time.Duration
	moveBudget     int
	publishEvery   time.Duration
	publishRows    int
	obs            *obs.Registry
	tracer         *obs.Tracer
}

// frontendEnabled reports whether any SLA-frontend flag was set.
func (o mainOptions) frontendEnabled() bool {
	return o.batchWait > 0 || o.maxQueue > 0 || o.sla > 0 || o.batchReqs > 0
}

func serveMain(m *model.Model, plan *sharding.Plan, listen, peers string, sim bool, opts mainOptions) (*rpc.Server, func(), error) {
	// Peer bindings, in order; a repeated name adds hedge replicas for
	// that service (first binding is the primary).
	peerAddrs := make(map[string][]string)
	if peers != "" {
		for _, binding := range strings.Split(peers, ",") {
			name, addr, ok := strings.Cut(strings.TrimSpace(binding), "=")
			if !ok {
				return nil, nil, fmt.Errorf("bad peer binding %q (want name=addr)", binding)
			}
			peerAddrs[name] = append(peerAddrs[name], addr)
		}
	}
	if opts.healthFails > 0 && opts.hedge <= 0 {
		// A silent replica produces no error to count; the breaker's
		// slow strikes (and its bounded waits) hang off the hedge timer.
		return nil, nil, fmt.Errorf("-health-fails requires -hedge > 0")
	}
	rec := trace.NewRecorder("main", 1<<18)
	if opts.tracer != nil {
		rec.SetSink(opts.tracer)
	}
	clients := make(map[string]rpc.Caller)
	eng, err := core.NewEngine(m, plan, core.EngineConfig{
		Recorder: rec,
		Obs:      opts.obs,
		ClientFor: func(service string) (rpc.Caller, error) {
			if c, ok := clients[service]; ok {
				return c, nil
			}
			addrs := peerAddrs[service]
			if len(addrs) == 0 {
				return nil, fmt.Errorf("service %q not bound by -peers", service)
			}
			var link *netsim.Link
			if sim {
				link = platform.SCLarge().Network(7).Request
			}
			callers := make([]rpc.Caller, 0, len(addrs))
			for _, addr := range addrs {
				c, err := rpc.Dial(addr, link)
				if err != nil {
					return nil, err
				}
				callers = append(callers, c)
			}
			var caller rpc.Caller = callers[0]
			if len(callers) > 1 {
				h, err := replication.NewHedged(callers, opts.hedge)
				if err != nil {
					return nil, err
				}
				if opts.healthFails > 0 {
					// Health-aware rotation: repeatedly failing replicas
					// are ejected and re-admitted via probation probes.
					h.Health = replication.NewHealthTracker(len(callers), replication.HealthConfig{
						FailThreshold: opts.healthFails,
						ProbeEvery:    opts.healthProbe,
					})
				}
				h.RegisterMetrics(opts.obs, "replication."+service+".")
				caller = h
			}
			clients[service] = caller
			return caller, nil
		},
	})
	if err != nil {
		return nil, nil, err
	}

	var handler rpc.Handler = &core.MainService{Engine: eng, Rec: rec, Tracer: opts.tracer}
	shutdown := func() {}
	if opts.frontendEnabled() {
		fe := frontend.New(eng, frontend.Config{
			BatchWait:        opts.batchWait,
			MaxBatchRequests: opts.batchReqs,
			MaxQueue:         opts.maxQueue,
			Budget:           opts.sla,
			Obs:              opts.obs,
			Tracer:           opts.tracer,
		})
		handler = &frontend.Service{F: fe, Rec: rec}
		shutdown = fe.Close
		fmt.Printf("drmserve: SLA frontend enabled (wait=%v queue=%d budget=%v)\n",
			opts.batchWait, opts.maxQueue, opts.sla)
	}
	srv, err := rpc.NewServer(listen, handler, rpc.ServerConfig{
		Recorder: rec, BoilerplateCost: platform.BaseBoilerplate,
		MaxInFlight: opts.maxInFlight,
	})
	if err != nil {
		shutdown()
		return nil, nil, err
	}
	opts.obs.RegisterProbeGroup(func(emit func(string, int64)) {
		s := srv.Stats()
		emit("rpc.main.inflight", s.InFlight)
		emit("rpc.main.peak_inflight", s.PeakInFlight)
		emit("rpc.main.overloads", s.Overloads)
	})

	// Control-plane calls (resharding, publishing) share one plain
	// connection per sparse server: the serving callers may be hedged,
	// and hedging a stage.commit would re-issue it against the same store.
	ctrl := make(map[string]*rpc.Client)
	ctrlFor := func(addr string) (*rpc.Client, error) {
		if cl, ok := ctrl[addr]; ok {
			return cl, nil
		}
		cl, err := rpc.DialPool(addr, nil, 1)
		if err == nil {
			ctrl[addr] = cl
		}
		return cl, err
	}

	if opts.rebalanceEvery > 0 && plan.IsDistributed() {
		mg := &core.Migrator{Engine: eng, Rec: rec, Shards: make(map[int]core.ShardEndpoint)}
		for i := 1; i <= plan.NumShards; i++ {
			name := core.ServiceName(i)
			addrs := peerAddrs[name]
			if len(addrs) == 0 {
				shutdown()
				srv.Close()
				return nil, nil, fmt.Errorf("-rebalance-every needs every shard in -peers; %s missing", name)
			}
			if len(addrs) > 1 {
				// Standalone replicas are separate processes with separate
				// table stores; migrating only the primary would leave the
				// replicas stale and turn every hedge into a miss. (The
				// in-process cluster is exempt: its replicas share one
				// store.)
				shutdown()
				srv.Close()
				return nil, nil, fmt.Errorf("-rebalance-every does not support hedge replicas yet (%s has %d addresses)", name, len(addrs))
			}
			ctrl, err := ctrlFor(addrs[0])
			if err != nil {
				shutdown()
				srv.Close()
				return nil, nil, err
			}
			mg.Shards[i] = core.ShardEndpoint{Service: name, Addr: addrs[0], Caller: ctrl}
		}
		stop := make(chan struct{})
		go func() {
			ticker := time.NewTicker(opts.rebalanceEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					report, err := mg.Rebalance(sharding.RebalanceOptions{MoveBudget: opts.moveBudget})
					if err != nil {
						fmt.Fprintln(os.Stderr, "drmserve: rebalance:", err)
						continue
					}
					fmt.Println("drmserve:", report)
				}
			}
		}()
		prev := shutdown
		shutdown = func() { close(stop); prev() }
		fmt.Printf("drmserve: online resharding every %v (move budget %d)\n", opts.rebalanceEvery, opts.moveBudget)
	}

	if opts.publishEvery > 0 && plan.IsDistributed() {
		pub := &core.Publisher{Engine: eng, Rec: rec, Obs: opts.obs, Shards: make(map[int][]core.ShardEndpoint)}
		for i := 1; i <= plan.NumShards; i++ {
			name := core.ServiceName(i)
			addrs := peerAddrs[name]
			if len(addrs) == 0 {
				shutdown()
				srv.Close()
				return nil, nil, fmt.Errorf("-publish-every needs every shard in -peers; %s missing", name)
			}
			// Every address gets its own delta stream: standalone replicas
			// are separate processes with separate table stores, and a
			// publish must make all of them fresh.
			for _, addr := range addrs {
				ctrl, err := ctrlFor(addr)
				if err != nil {
					shutdown()
					srv.Close()
					return nil, nil, err
				}
				pub.Shards[i] = append(pub.Shards[i], core.ShardEndpoint{Service: name, Addr: addr, Caller: ctrl})
			}
		}
		stop := make(chan struct{})
		go func() {
			ticker := time.NewTicker(opts.publishEvery)
			defer ticker.Stop()
			version := uint64(0)
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					version++
					report, err := pub.Publish(identityDelta(m, version, opts.publishRows))
					if err != nil {
						fmt.Fprintln(os.Stderr, "drmserve: publish:", err)
						continue
					}
					fmt.Println("drmserve:", report)
				}
			}
		}()
		prev := shutdown
		shutdown = func() { close(stop); prev() }
		fmt.Printf("drmserve: publishing identity deltas every %v (%d rows/table)\n", opts.publishEvery, opts.publishRows)
	}
	return srv, shutdown, nil
}

// identityDelta builds a delta set that republishes rows already being
// served — synthetic freshness load whose commit provably cannot change
// scores. Each version samples a different contiguous row window.
func identityDelta(m *model.Model, version uint64, rowsPer int) *core.DeltaSet {
	ds := &core.DeltaSet{Version: version}
	if rowsPer <= 0 {
		rowsPer = 16
	}
	for id, tab := range m.Tables {
		dense, ok := tab.(*embedding.Dense)
		if !ok {
			continue
		}
		n := rowsPer
		if n > dense.RowsN {
			n = dense.RowsN
		}
		start := int(version*2654435761) % dense.RowsN
		rows := make([]int32, 0, n)
		data := make([]float32, 0, n*dense.DimN)
		for k := 0; k < n; k++ {
			r := (start + k) % dense.RowsN
			rows = append(rows, int32(r))
			data = append(data, dense.Data[r*dense.DimN:(r+1)*dense.DimN]...)
		}
		ds.Tables = append(ds.Tables, core.TableDelta{TableID: id, Rows: rows, Data: data})
	}
	return ds
}

func buildPlan(cfg *model.Config, strategy string, n int, pooling map[int]float64) (*sharding.Plan, error) {
	switch strategy {
	case sharding.StrategySingular:
		return sharding.Singular(cfg), nil
	case sharding.StrategyOneShard:
		return sharding.OneShard(cfg), nil
	case sharding.StrategyCapacity:
		return sharding.CapacityBalanced(cfg, n)
	case sharding.StrategyLoad:
		return sharding.LoadBalanced(cfg, n, pooling)
	case sharding.StrategyNSBP, "nsbp":
		return sharding.NSBP(cfg, n)
	}
	return nil, fmt.Errorf("unknown strategy %q", strategy)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drmserve:", err)
	os.Exit(1)
}
