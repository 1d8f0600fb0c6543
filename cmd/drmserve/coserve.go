// The coserve role: one process hosts several ranking models on a
// shared fleet behind a single front door. Each repeated -model flag is
// one tenant spec; the elastic scheduler (enabled by -elastic-every)
// moves replica capacity between tenants from live load signals, and
// -scale forces a move for the CI smoke.
//
//	drmserve -role coserve \
//	    -model 'DRM1:sla=6ms,replicas=2,slots=3' \
//	    -model 'drm2b=DRM2:sla=8ms' \
//	    -capacity 10 -elastic-every 500ms -metrics-addr 127.0.0.1:9100
//
// Tenants are driven through the shared door with rank@<tenant>
// (cmd/replayer -tenant).
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// modelFlags makes -model repeatable: the single-model roles read the
// first value as the model name, the coserve role treats every value as
// one tenant spec.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }

func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// primary is the single-model roles' model name (default DRM1).
func (m modelFlags) primary() string {
	if len(m) == 0 {
		return "DRM1"
	}
	name, _, _ := strings.Cut(m[0], ":")
	return strings.TrimSpace(name)
}

// tenantFlagSpec is one parsed -model tenant spec. The zero keys of a
// spec inherit the process-wide flags (-sla, -max-queue, -batch-wait,
// -batch-reqs, -shards, -strategy), so common tuning is written once.
type tenantFlagSpec struct {
	name, model string
	sla         time.Duration
	queue       int
	batchWait   time.Duration
	batchReqs   int
	shards      int
	strategy    string
	replicas    int
	slots       int
	min, max    int
}

// parseTenantSpec parses "NAME[=MODEL][:key=val,...]" over defaults d.
// NAME names the tenant (the rank@NAME route and model= obs label) and,
// without =MODEL, doubles as the model; NAME=MODEL hosts a tenant copy
// of MODEL under its own name.
func parseTenantSpec(s string, d tenantFlagSpec) (tenantFlagSpec, error) {
	out := d
	head, opts, hasOpts := strings.Cut(s, ":")
	head = strings.TrimSpace(head)
	if name, mod, ok := strings.Cut(head, "="); ok {
		out.name, out.model = strings.TrimSpace(name), strings.TrimSpace(mod)
	} else {
		out.name, out.model = head, head
	}
	if out.name == "" {
		return out, fmt.Errorf("tenant spec %q has no name", s)
	}
	if err := model.CheckName(out.model); err != nil {
		return out, fmt.Errorf("tenant spec %q: %w", s, err)
	}
	if !hasOpts {
		return out, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || v == "" {
			return out, fmt.Errorf("tenant spec %q: bad option %q (want key=val)", s, kv)
		}
		var err error
		switch k {
		case "sla":
			out.sla, err = time.ParseDuration(v)
		case "batch-wait":
			out.batchWait, err = time.ParseDuration(v)
		case "queue":
			out.queue, err = strconv.Atoi(v)
		case "batch-reqs":
			out.batchReqs, err = strconv.Atoi(v)
		case "shards":
			out.shards, err = strconv.Atoi(v)
		case "strategy":
			out.strategy = v
		case "replicas":
			out.replicas, err = strconv.Atoi(v)
		case "slots":
			out.slots, err = strconv.Atoi(v)
		case "min":
			out.min, err = strconv.Atoi(v)
		case "max":
			out.max, err = strconv.Atoi(v)
		default:
			return out, fmt.Errorf("tenant spec %q: unknown option %q", s, k)
		}
		if err != nil {
			return out, fmt.Errorf("tenant spec %q: option %q: %w", s, kv, err)
		}
	}
	return out, nil
}

// parseScale parses the -scale flag's "MODEL=N" ("", 0 when unset).
func parseScale(s string) (string, int, error) {
	if s == "" {
		return "", 0, nil
	}
	name, nStr, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return "", 0, fmt.Errorf("-scale %q: want MODEL=N", s)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 1 {
		return "", 0, fmt.Errorf("-scale %q: bad replica count %q", s, nStr)
	}
	return name, n, nil
}

// forceScaleAfter applies the -scale override once the fleet has had
// -scale-after of live traffic, and reports the executed move.
func forceScaleAfter(fl *cluster.Fleet, name string, to int, after time.Duration) {
	time.Sleep(after)
	if err := fl.ForceScale(name, to); err != nil {
		fmt.Fprintln(os.Stderr, "drmserve: forced scale:", err)
		return
	}
	tl := fl.Timeline()
	if len(tl) == 0 {
		fmt.Printf("drmserve: forced scale %s: already at %d replicas\n", name, to)
		return
	}
	ev := tl[len(tl)-1]
	fmt.Printf("drmserve: forced scale %s %d->%d (%d snapshot bytes in %v)\n",
		ev.Model, ev.From, ev.To, ev.RebuildBytes, ev.Took.Round(time.Microsecond))
}

// coserveOptions carries the coserve role's fleet-wide tuning.
type coserveOptions struct {
	listen      string
	capacity    float64
	every       time.Duration
	hedge       time.Duration
	healthFails int
	healthProbe time.Duration
	maxInFlight int
	obs         *obs.Registry
}

func serveCoserve(specArgs []string, defaults tenantFlagSpec, opts coserveOptions) (*cluster.Fleet, error) {
	if len(specArgs) == 0 {
		return nil, fmt.Errorf("-role coserve needs at least one -model tenant spec")
	}
	specs := make([]cluster.TenantSpec, 0, len(specArgs))
	for _, arg := range specArgs {
		ts, err := parseTenantSpec(arg, defaults)
		if err != nil {
			return nil, err
		}
		cfg := model.ByName(ts.model)
		pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 991), 200)
		plan, err := buildPlan(&cfg, ts.strategy, ts.shards, pooling)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", ts.name, err)
		}
		specs = append(specs, cluster.TenantSpec{
			Name:  ts.name,
			Model: model.Build(cfg),
			Plan:  plan,
			Frontend: frontend.Config{
				BatchWait:        ts.batchWait,
				MaxBatchRequests: ts.batchReqs,
				MaxQueue:         ts.queue,
				Budget:           ts.sla,
			},
			InitialReplicas: ts.replicas,
			SlotReplicas:    ts.slots,
			MinReplicas:     ts.min,
			MaxReplicas:     ts.max,
		})
	}
	fl, err := cluster.BootFleet(specs, cluster.FleetOptions{
		Capacity:         opts.capacity,
		Interval:         opts.every,
		HedgeDelay:       opts.hedge,
		HealthFails:      opts.healthFails,
		HealthProbe:      opts.healthProbe,
		FrontMaxInFlight: opts.maxInFlight,
		Listen:           opts.listen,
		Obs:              opts.obs,
	})
	if err != nil {
		return nil, err
	}
	for i, name := range fl.Names() {
		cl := fl.TenantCluster(name)
		fmt.Printf("drmserve: tenant %s serves %s (%s): %d/%d replicas active, sla=%v\n",
			name, specs[i].Model.Config.Name, specs[i].Plan.Name(),
			cl.ActiveReplicas(), cl.ReplicaSlots(), specs[i].Frontend.Budget)
	}
	elastic := "elastic scheduler off"
	if opts.every > 0 {
		elastic = fmt.Sprintf("elastic every %v", opts.every)
	}
	fmt.Printf("drmserve: coserve front door on %s hosting %d models (%s)\n",
		fl.Addr(), len(specs), elastic)
	return fl, nil
}
