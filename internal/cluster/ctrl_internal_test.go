package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sharding"
)

// TestCtrlCacheTracksLiveServers runs kill → publish → revive → publish
// cycles on a replicated deployment and requires the control-client
// cache to hold at most one client per live server and none for a dead
// one: a killed server's connection is dropped with the server, not kept
// until Close.
func TestCtrlCacheTracksLiveServers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := model.DRM2()
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 64 + i%7
		cfg.Tables[i].PoolingFactor = min(cfg.Tables[i].PoolingFactor, 4)
	}
	cfg.MeanItems = 6
	cfg.DefaultBatch = 3
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Boot(m, plan, Options{Seed: 3, SparseReplicas: 2, HedgeDelay: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// An identity delta over rows 0 and 1 of one table per shard.
	delta := func(version uint64) *core.DeltaSet {
		ds := &core.DeltaSet{Version: version}
		for si := range plan.Shards {
			id := plan.Shards[si].Tables[0]
			tab := m.Tables[id]
			data := make([]float32, 2*tab.Dim())
			tab.AccumulateRow(data[:tab.Dim()], 0)
			tab.AccumulateRow(data[tab.Dim():], 1)
			ds.Tables = append(ds.Tables, core.TableDelta{TableID: id, Rows: []int32{0, 1}, Data: data})
		}
		return ds
	}
	check := func(when string) {
		t.Helper()
		cl.replicaMu.Lock()
		defer cl.replicaMu.Unlock()
		live := make(map[string]bool)
		for _, reps := range cl.replicas {
			for _, rep := range reps {
				if rep.srv != nil {
					live[rep.srv.Addr()] = true
				}
			}
		}
		for addr := range cl.ctrl {
			if !live[addr] {
				t.Fatalf("%s: control cache holds a client for dead server %s", when, addr)
			}
		}
		if len(cl.ctrl) == 0 || len(cl.ctrl) > len(live) {
			t.Fatalf("%s: %d cached control clients for %d live servers", when, len(cl.ctrl), len(live))
		}
	}

	version := uint64(0)
	publish := func() {
		t.Helper()
		version++
		if _, err := cl.Publish(delta(version)); err != nil {
			t.Fatal(err)
		}
	}
	publish()
	check("boot")
	for cycle := 0; cycle < 3; cycle++ {
		if err := cl.KillReplica(0, 0); err != nil {
			t.Fatal(err)
		}
		publish()
		check("after kill")
		if err := cl.ReviveReplica(0, 0); err != nil {
			t.Fatal(err)
		}
		publish()
		check("after revive")
	}
	if _, err := cl.Rebalance(sharding.RebalanceOptions{}); err != nil {
		t.Fatal(err)
	}
	check("after rebalance")
}
