package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ActivationFunc selects the nonlinearity applied by an Activation op or
// fused into a FusedFC.
type ActivationFunc int

// Supported activations. ActNone (the zero value) is only meaningful on
// FusedFC, where it selects the plain affine layer.
const (
	ActNone ActivationFunc = iota
	ActReLU
	ActSigmoid
)

// valid reports whether f names a known activation (ActNone included).
func (f ActivationFunc) valid() bool { return f >= ActNone && f <= ActSigmoid }

// applyAct runs f elementwise in place; ActNone is a no-op.
func applyAct(f ActivationFunc, xs []float32) error {
	switch f {
	case ActNone:
	case ActReLU:
		tensor.ReLUSlice(xs)
	case ActSigmoid:
		tensor.SigmoidSlice(xs)
	default:
		return fmt.Errorf("unknown activation %d", f)
	}
	return nil
}

// FusedFC is a fully-connected layer with the bias addition and
// activation fused into the GEMM epilogue: Output = act(Input·W + B),
// computed tile by tile inside the parallel GEMM workers with no extra
// pass over the output and no intermediate blob. The dense stacks of the
// recommendation models (bottom MLP over dense features, top MLP over
// interactions) are chains of these layers, and per Fig. 4 they dominate
// per-request compute. Results are bitwise identical to a GEMM followed
// by a separate bias pass and activation pass (the epilogue applies the
// same elementwise ops to each finished row). Output storage draws from
// the workspace arena when scheduled.
type FusedFC struct {
	OpName        string
	W             *tensor.Matrix // In×Out
	B             []float32      // len Out, nil for no bias
	Act           ActivationFunc // ActNone for the plain affine layer
	Input, Output string
}

// Name implements Op.
func (o *FusedFC) Name() string { return o.OpName }

// Kind implements Op.
func (o *FusedFC) Kind() OpKind { return KindDense }

// Run implements Op.
func (o *FusedFC) Run(ws *Workspace) error {
	in, err := ws.WaitBlob(o.Input)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	if in.Cols != o.W.Rows {
		return fmt.Errorf("%s: input cols %d != weight rows %d", o.OpName, in.Cols, o.W.Rows)
	}
	if o.B != nil && len(o.B) != o.W.Cols {
		return fmt.Errorf("%s: bias length %d != output cols %d", o.OpName, len(o.B), o.W.Cols)
	}
	// Reject an invalid Act up front: the epilogue below discards
	// applyAct's error (workers have nowhere to report it), so it must
	// be impossible by the time tiles run.
	if !o.Act.valid() {
		return fmt.Errorf("%s: unknown activation %d", o.OpName, o.Act)
	}
	out := ws.AllocBlob(o.Output, in.Rows, o.W.Cols)
	tensor.MatMulEpilogue(out, in, o.W, func(i0, i1 int) {
		for r := i0; r < i1; r++ {
			row := out.Row(r)
			if o.B != nil {
				for c := range row {
					row[c] += o.B[c]
				}
			}
			_ = applyAct(o.Act, row)
		}
	})
	ws.SetBlob(o.Output, out)
	return nil
}

// Activation applies a nonlinearity in place on a blob.
type Activation struct {
	OpName string
	Func   ActivationFunc
	Blob   string
}

// Name implements Op.
func (o *Activation) Name() string { return o.OpName }

// Kind implements Op.
func (o *Activation) Kind() OpKind { return KindActivation }

// Run implements Op.
func (o *Activation) Run(ws *Workspace) error {
	m, err := ws.WaitBlob(o.Blob)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	if o.Func == ActNone {
		// A standalone activation op exists to activate; ActNone here is
		// a wiring bug (likely an unset field), not a request for a no-op.
		return fmt.Errorf("%s: unknown activation %d", o.OpName, o.Func)
	}
	if err := applyAct(o.Func, m.Data); err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	return nil
}

// ScaleClip scales then clamps a blob in place, modeling the
// preprocessing operators in Fig. 4's "Scale/Clip" group.
type ScaleClip struct {
	OpName string
	Scale  float32
	Lo, Hi float32
	Blob   string
}

// Name implements Op.
func (o *ScaleClip) Name() string { return o.OpName }

// Kind implements Op.
func (o *ScaleClip) Kind() OpKind { return KindScaleClip }

// Run implements Op.
func (o *ScaleClip) Run(ws *Workspace) error {
	m, err := ws.WaitBlob(o.Blob)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	tensor.Scale(m, o.Scale)
	tensor.Clip(m, o.Lo, o.Hi)
	return nil
}

// ConcatOp concatenates blobs horizontally into Output (Fig. 4's "Memory
// Transformations" group).
type ConcatOp struct {
	OpName string
	Inputs []string
	Output string
}

// Name implements Op.
func (o *ConcatOp) Name() string { return o.OpName }

// Kind implements Op.
func (o *ConcatOp) Kind() OpKind { return KindMemoryTransform }

// Run implements Op.
func (o *ConcatOp) Run(ws *Workspace) error {
	ms := make([]*tensor.Matrix, len(o.Inputs))
	rows, cols := 0, 0
	for i, name := range o.Inputs {
		m, err := ws.WaitBlob(name)
		if err != nil {
			return fmt.Errorf("%s: %w", o.OpName, err)
		}
		ms[i] = m
		rows = m.Rows
		cols += m.Cols
	}
	if len(ms) == 0 {
		ws.SetBlob(o.Output, tensor.New(0, 0))
		return nil
	}
	out := ws.AllocBlob(o.Output, rows, cols)
	tensor.ConcatInto(out, ms...)
	ws.SetBlob(o.Output, out)
	return nil
}

// Interaction computes the DLRM pairwise-dot feature interaction over a
// set of equal-shaped feature blobs and concatenates the result with the
// Passthrough blob (the bottom-MLP output), producing the top-MLP input.
type Interaction struct {
	OpName      string
	Features    []string
	Passthrough string
	Output      string
}

// Name implements Op.
func (o *Interaction) Name() string { return o.OpName }

// Kind implements Op.
func (o *Interaction) Kind() OpKind { return KindFeatureTransform }

// Run implements Op.
func (o *Interaction) Run(ws *Workspace) error {
	feats := make([]*tensor.Matrix, len(o.Features))
	for i, name := range o.Features {
		m, err := ws.WaitBlob(name)
		if err != nil {
			return fmt.Errorf("%s: %w", o.OpName, err)
		}
		feats[i] = m
	}
	pass, err := ws.WaitBlob(o.Passthrough)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	// Write the passthrough columns and the pairwise dots straight into
	// the output (arena-drawn when scheduled) — no intermediate dots or
	// concat blob. The dots share tensor.PairwiseDotRow with PairwiseDot,
	// so results are bitwise identical to the unfused Dot+Concat form.
	f := len(feats)
	dotCols := f * (f - 1) / 2
	for _, m := range feats {
		if m.Rows != pass.Rows || m.Cols != feats[0].Cols {
			return fmt.Errorf("%s: feature shape %dx%d inconsistent", o.OpName, m.Rows, m.Cols)
		}
	}
	out := ws.AllocBlob(o.Output, pass.Rows, pass.Cols+dotCols)
	for r := 0; r < pass.Rows; r++ {
		row := out.Row(r)
		copy(row[:pass.Cols], pass.Row(r))
		tensor.PairwiseDotRow(row[pass.Cols:], feats, r)
	}
	ws.SetBlob(o.Output, out)
	return nil
}
