package core

import (
	"fmt"
	"io"
)

// WriteReport emits a human-readable analysis report (the "results storage"
// output of the pipeline).
func (r *Result) WriteReport(w io.Writer) error {
	st := r.Mesh.Stats()
	_, err := fmt.Fprintf(w, `grounding analysis report
  soil model:       %s
  discretization:   %d %s elements, %d degrees of freedom
  total electrode:  %.2f m
  GPR:              %.6g V
  equivalent resistance Req: %.6g ohm
  total fault current IGamma: %.6g A
  stage timings: input=%v preprocess=%v matrix=%v solve=%v results=%v (total %v)
`,
		r.Model.Describe(),
		st.Elements, r.Mesh.Kind, st.DoF,
		st.TotalLength,
		r.GPR,
		r.Req,
		r.Current,
		r.Timings.Input, r.Timings.Preprocess, r.Timings.MatrixGen,
		r.Timings.Solve, r.Timings.Results, r.Timings.Total(),
	)
	if err != nil {
		return err
	}
	for _, warn := range r.Warnings {
		if _, err := fmt.Fprintf(w, "  WARNING: %s\n", warn); err != nil {
			return err
		}
	}
	return nil
}

// PredictedSpeedup estimates the parallel speed-up implied by the work
// distribution of the matrix-generation loop: Σ pair classes / max classes
// over workers (the loop evaluates one elemental matrix per class of
// congruent element pairs, see bem.PairClass). On a machine with one physical core per worker and
// negligible scheduling overhead this equals the wall-clock speed-up; it is
// the load-balance quantity the schedule comparison of Table 6.2 probes,
// and it is host-independent (the reproduction host may have fewer cores
// than configured workers — see EXPERIMENTS.md).
func (r *Result) PredictedSpeedup() float64 {
	return r.asm.PredictedSpeedup()
}
