package nn

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

func TestWorkspaceBlobLifecycle(t *testing.T) {
	ws := NewWorkspace()
	if ws.HasBlob("x") {
		t.Error("fresh workspace should be empty")
	}
	if _, err := ws.Blob("x"); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("missing blob error should name the blob, got %v", err)
	}
	m := tensor.New(1, 1)
	ws.SetBlob("x", m)
	got, err := ws.Blob("x")
	if err != nil || got != m {
		t.Errorf("Blob returned %v, %v", got, err)
	}
}

func TestWorkspaceBags(t *testing.T) {
	ws := NewWorkspace()
	if _, err := ws.Bags("f"); err == nil {
		t.Error("missing bags should error")
	}
	ws.SetBags("f", []embedding.Bag{{Indices: []int32{1}}})
	b, err := ws.Bags("f")
	if err != nil || len(b) != 1 {
		t.Errorf("Bags = %v, %v", b, err)
	}
}

func TestFutureResolution(t *testing.T) {
	ws := NewWorkspace()
	f := NewFuture()
	ws.RegisterFuture("out", f)
	if ws.Pending() != 1 {
		t.Fatalf("Pending = %d", ws.Pending())
	}
	want := tensor.New(2, 2)
	go f.Complete(want, nil)
	got, err := ws.WaitBlob("out")
	if err != nil || got != want {
		t.Fatalf("WaitBlob = %v, %v", got, err)
	}
	if ws.Pending() != 0 {
		t.Errorf("future should be consumed")
	}
	// Resolved blob is now a plain blob.
	if _, err := ws.Blob("out"); err != nil {
		t.Errorf("resolved blob should be readable: %v", err)
	}
}

func TestFutureError(t *testing.T) {
	ws := NewWorkspace()
	f := NewFuture()
	ws.RegisterFuture("out", f)
	f.Complete(nil, errors.New("boom"))
	if _, err := ws.WaitBlob("out"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error should propagate, got %v", err)
	}
}

func TestDuplicateFuturePanics(t *testing.T) {
	ws := NewWorkspace()
	ws.RegisterFuture("out", NewFuture())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ws.RegisterFuture("out", NewFuture())
}

func TestWaitAllCollectsErrors(t *testing.T) {
	ws := NewWorkspace()
	f1, f2 := NewFuture(), NewFuture()
	ws.RegisterFuture("a", f1)
	ws.RegisterFuture("b", f2)
	f1.Complete(tensor.New(1, 1), nil)
	f2.Complete(nil, errors.New("late failure"))
	if err := ws.WaitAll(); err == nil {
		t.Error("WaitAll should surface the failure")
	}
	if ws.Pending() != 0 {
		t.Error("WaitAll should drain all futures")
	}
}

func TestFCKnownValues(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("in", tensor.FromSlice(1, 2, []float32{1, 2}))
	op := &FusedFC{
		OpName: "fc1",
		W:      tensor.FromSlice(2, 2, []float32{1, 0, 0, 1}),
		B:      []float32{10, 20},
		Input:  "in", Output: "out",
	}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	out, _ := ws.Blob("out")
	if out.Data[0] != 11 || out.Data[1] != 22 {
		t.Errorf("FC out = %v", out.Data)
	}
	if op.Kind() != KindDense || op.Name() != "fc1" {
		t.Error("FC metadata wrong")
	}
}

func TestFCShapeError(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("in", tensor.New(1, 3))
	op := &FusedFC{OpName: "fc", W: tensor.New(2, 2), Input: "in", Output: "out"}
	if err := op.Run(ws); err == nil {
		t.Error("expected shape error")
	}
}

func TestFCMissingInput(t *testing.T) {
	op := &FusedFC{OpName: "fc", W: tensor.New(2, 2), Input: "nope", Output: "out"}
	if err := op.Run(NewWorkspace()); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error should name missing blob: %v", err)
	}
}

func TestActivations(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("x", tensor.FromSlice(1, 2, []float32{-1, 1}))
	relu := &Activation{OpName: "relu", Func: ActReLU, Blob: "x"}
	if err := relu.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("x")
	if m.Data[0] != 0 || m.Data[1] != 1 {
		t.Errorf("ReLU = %v", m.Data)
	}
	sig := &Activation{OpName: "sig", Func: ActSigmoid, Blob: "x"}
	if err := sig.Run(ws); err != nil {
		t.Fatal(err)
	}
	if m.Data[0] != 0.5 {
		t.Errorf("Sigmoid(0) = %v", m.Data[0])
	}
	bad := &Activation{OpName: "bad", Func: ActivationFunc(99), Blob: "x"}
	if err := bad.Run(ws); err == nil {
		t.Error("unknown activation should error")
	}
}

func TestScaleClip(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("x", tensor.FromSlice(1, 3, []float32{-4, 1, 4}))
	op := &ScaleClip{OpName: "sc", Scale: 2, Lo: -3, Hi: 5, Blob: "x"}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("x")
	want := []float32{-3, 2, 5}
	for i, w := range want {
		if m.Data[i] != w {
			t.Errorf("data[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
	if op.Kind() != KindScaleClip {
		t.Error("kind wrong")
	}
}

func TestHashBagsDeterministicAndInRange(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBags("raw_a", []embedding.Bag{{Indices: []int32{12345, 67890, -5}}, {}})
	ws.SetBags("raw_b", []embedding.Bag{{Indices: []int32{7}}})
	op := &HashAllBags{OpName: "hash", Entries: []HashEntry{
		{Buckets: 100, Input: "raw_a", Output: "hashed_a"},
		{Buckets: 3, Input: "raw_b", Output: "hashed_b"},
	}}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	if op.Kind() != KindHash {
		t.Error("hash kind should be Hash")
	}
	var first [][]embedding.Bag
	for _, e := range op.Entries {
		got, _ := ws.Bags(e.Output)
		raw, _ := ws.Bags(e.Input)
		if len(got) != len(raw) {
			t.Fatalf("%s: %d bags, want %d", e.Output, len(got), len(raw))
		}
		for b := range got {
			if len(got[b].Indices) != len(raw[b].Indices) {
				t.Errorf("%s bag %d: %d indices, want %d", e.Output, b, len(got[b].Indices), len(raw[b].Indices))
			}
			for _, idx := range got[b].Indices {
				if idx < 0 || idx >= e.Buckets {
					t.Errorf("%s: hashed index %d outside [0, %d)", e.Output, idx, e.Buckets)
				}
			}
		}
		first = append(first, got)
	}
	// Determinism.
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	for i, e := range op.Entries {
		again, _ := ws.Bags(e.Output)
		for b := range again {
			for k := range again[b].Indices {
				if again[b].Indices[k] != first[i][b].Indices[k] {
					t.Errorf("%s: hashing should be deterministic", e.Output)
				}
			}
		}
	}
}

func TestHashBagsValidation(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBags("raw", []embedding.Bag{})
	op := &HashAllBags{OpName: "hash", Entries: []HashEntry{{Buckets: 0, Input: "raw", Output: "h"}}}
	if err := op.Run(ws); err == nil {
		t.Error("zero buckets should error")
	}
	op2 := &HashAllBags{OpName: "hash", Entries: []HashEntry{{Buckets: 10, Input: "missing", Output: "h"}}}
	if err := op2.Run(ws); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing input should error naming it: %v", err)
	}
}

func TestSLSOp(t *testing.T) {
	tab := embedding.NewDense(4, 2)
	copy(tab.Data, []float32{1, 1, 2, 2, 3, 3, 4, 4})
	ws := NewWorkspace()
	ws.SetBags("f", []embedding.Bag{{Indices: []int32{0, 3}}, {Indices: []int32{2}}})
	ws.SetBags("g", []embedding.Bag{{}, {Indices: []int32{1, 1}}})
	op := &MultiSLS{OpName: "sls", Entries: []SLSEntry{
		{Table: tab, InputBags: "f", Output: "pooled_f"},
		{Table: tab, InputBags: "g", Output: "pooled_g"},
	}}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	f, _ := ws.Blob("pooled_f")
	if f.Rows != 2 || f.Cols != 2 {
		t.Fatalf("pooled shape %dx%d", f.Rows, f.Cols)
	}
	if f.At(0, 0) != 5 || f.At(1, 0) != 3 {
		t.Errorf("pooled_f = %v", f.Data)
	}
	if g, _ := ws.Blob("pooled_g"); g.At(0, 0) != 0 || g.At(1, 1) != 4 {
		t.Errorf("pooled_g = %v (empty bag must pool to zeros)", g.Data)
	}
	if op.Kind() != KindSparse {
		t.Error("SLS kind should be Sparse")
	}
	bad := &MultiSLS{OpName: "sls", Entries: []SLSEntry{{Table: tab, InputBags: "missing", Output: "x"}}}
	if err := bad.Run(ws); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing bags should error naming them: %v", err)
	}
}

func TestConcatOp(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("a", tensor.FromSlice(1, 1, []float32{1}))
	ws.SetBlob("b", tensor.FromSlice(1, 2, []float32{2, 3}))
	op := &ConcatOp{OpName: "cat", Inputs: []string{"a", "b"}, Output: "out"}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("out")
	if m.Cols != 3 || m.Data[2] != 3 {
		t.Errorf("concat = %v", m.Data)
	}
}

func TestInteraction(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("e1", tensor.FromSlice(1, 2, []float32{1, 0}))
	ws.SetBlob("e2", tensor.FromSlice(1, 2, []float32{0, 1}))
	ws.SetBlob("bottom", tensor.FromSlice(1, 2, []float32{5, 6}))
	op := &Interaction{OpName: "int", Features: []string{"e1", "e2"}, Passthrough: "bottom", Output: "top_in"}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("top_in")
	// bottom (2 cols) + 1 pairwise dot = 3 cols; dot(e1,e2)=0.
	if m.Cols != 3 || m.Data[0] != 5 || m.Data[2] != 0 {
		t.Errorf("interaction out = %v", m.Data)
	}
}

// recordingObserver captures scheduler callbacks for assertions.
type recordingObserver struct {
	ops      []string
	netName  string
	total    time.Duration
	opTime   time.Duration
	finished bool
}

func (r *recordingObserver) OpExecuted(net string, op Op, start time.Time, dur time.Duration) {
	r.ops = append(r.ops, op.Name())
}

func (r *recordingObserver) NetFinished(net string, start time.Time, total, opTime time.Duration) {
	r.netName, r.total, r.opTime, r.finished = net, total, opTime, true
}

func TestNetRunSequentialWithObserver(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("in", tensor.FromSlice(1, 2, []float32{1, 2}))
	net := &Net{NetName: "n", Ops: []Op{
		&FusedFC{OpName: "fc1", W: tensor.FromSlice(2, 2, []float32{1, 0, 0, 1}), Input: "in", Output: "h"},
		&Activation{OpName: "relu", Func: ActReLU, Blob: "h"},
	}}
	obs := &recordingObserver{}
	if err := net.Run(ws, obs); err != nil {
		t.Fatal(err)
	}
	if len(obs.ops) != 2 || obs.ops[0] != "fc1" || obs.ops[1] != "relu" {
		t.Errorf("observed ops = %v", obs.ops)
	}
	if !obs.finished || obs.netName != "n" || obs.total < obs.opTime {
		t.Errorf("NetFinished wrong: %+v", obs)
	}
}

func TestNetRunStopsOnError(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{
		&FusedFC{OpName: "fc1", W: tensor.New(2, 2), Input: "missing", Output: "h"},
		&ConcatOp{OpName: "cat", Output: "should-not-run"},
	}}
	if err := net.Run(ws, nil); err == nil {
		t.Fatal("expected error")
	}
	if ws.HasBlob("should-not-run") {
		t.Error("ops after a failure must not run")
	}
}

// asyncOp is a test double for the RPC op: it launches a goroutine and
// registers a future.
type asyncOp struct {
	name  string
	out   string
	delay time.Duration
	fail  bool
}

func (a *asyncOp) Name() string { return a.name }
func (a *asyncOp) Kind() OpKind { return KindRPC }
func (a *asyncOp) Run(ws *Workspace) error {
	f := NewFuture()
	ws.RegisterFuture(a.out, f)
	go func() {
		time.Sleep(a.delay)
		if a.fail {
			f.Complete(nil, fmt.Errorf("%s: remote failure", a.name))
			return
		}
		f.Complete(tensor.FromSlice(1, 1, []float32{42}), nil)
	}()
	return nil
}

func TestNetRunAsyncOpResolvedByConsumer(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{
		&asyncOp{name: "rpc1", out: "remote", delay: time.Millisecond},
		&FusedFC{OpName: "fc", W: tensor.FromSlice(1, 1, []float32{2}), Input: "remote", Output: "out"},
	}}
	if err := net.Run(ws, nil); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("out")
	if m.Data[0] != 84 {
		t.Errorf("async consumer got %v, want 84", m.Data[0])
	}
}

func TestNetRunAsyncFailurePropagates(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{
		&asyncOp{name: "rpc1", out: "remote", fail: true},
	}}
	if err := net.Run(ws, nil); err == nil || !strings.Contains(err.Error(), "remote failure") {
		t.Errorf("async failure should propagate: %v", err)
	}
	if ws.Pending() != 0 {
		t.Error("futures must be drained after failure")
	}
}

func TestNetRunDrainsAsyncOnSyncError(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{
		&asyncOp{name: "rpc1", out: "remote", delay: 5 * time.Millisecond},
		&FusedFC{OpName: "fc", W: tensor.New(2, 2), Input: "missing", Output: "out"},
	}}
	if err := net.Run(ws, nil); err == nil {
		t.Fatal("expected error")
	}
	if ws.Pending() != 0 {
		t.Error("async futures must be drained on sync failure")
	}
}

func TestOpKindString(t *testing.T) {
	if KindDense.String() != "Dense" || KindRPC.String() != "RPC" {
		t.Error("kind names wrong")
	}
	if OpKind(99).String() != "Unknown" {
		t.Error("unknown kind should render Unknown")
	}
}

// panicOp fails by panicking, as a corrupted-index or storage-fault path
// would.
type panicOp struct{}

func (p *panicOp) Name() string { return "boom" }
func (p *panicOp) Kind() OpKind { return KindSparse }
func (p *panicOp) Run(ws *Workspace) error {
	panic("storage fault")
}

func TestNetRunConvertsPanicsToErrors(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{&panicOp{}}}
	err := net.Run(ws, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "storage fault") {
		t.Fatalf("panic should surface as an error naming the op: %v", err)
	}
}
