package main

import (
	"math"
	"testing"

	"repro/internal/rpc"
)

// TestOutputCheckCatchesCorruptReference runs real requests through a
// booted singular deployment and checks them twice: against the true
// reference every response passes, and against a reference with one bit
// flipped exactly that request is reported wrong and the run incorrect.
func TestOutputCheckCatchesCorruptReference(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a DRM1 deployment")
	}
	s, err := specByName("singular-steady")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := bootCluster(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.close()
	pool, err := newRequestPool(dep.model, s, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	client, err := rpc.DialPool(dep.addr, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	gen := &loadGen{client: client, pool: pool}

	rep := &report{correct: true}
	rep.tally(gen.run(4, 50, nil), true)
	if !rep.correct || rep.failed != 0 {
		t.Fatalf("true reference: correct=%v failed=%d (%s)", rep.correct, rep.failed, rep.firstErr)
	}

	// Every run walks the pool from its first entry; corrupt that entry's
	// reference.
	ref := pool.refs[0]
	ref[len(ref)/2] = math.Float32frombits(math.Float32bits(ref[len(ref)/2]) ^ 1)
	pr := gen.run(4, 50, nil)
	rep = &report{correct: true}
	rep.tally(pr, true)
	if rep.correct || rep.failed != 1 {
		t.Fatalf("corrupt reference: correct=%v failed=%d, want false and 1", rep.correct, rep.failed)
	}
	if pr.results[0].out != outWrong {
		t.Errorf("request with the corrupt reference classified %d, want outWrong", pr.results[0].out)
	}
	for i, r := range pr.results[1:] {
		if r.out != outOK {
			t.Errorf("request %d classified %d, want outOK", i+1, r.out)
		}
	}
}
