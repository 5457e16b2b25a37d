package earthing

import (
	"context"
	"io"

	"earthing/internal/post"
	"earthing/internal/wenner"
)

// Wenner survey re-exports: the measurement side of soil modelling.
type (
	// SurveyMeasurement is one Wenner sounding (spacing, apparent
	// resistivity).
	SurveyMeasurement = wenner.Measurement
	// SoilFit is a fitted two-layer soil parameterization.
	SoilFit = wenner.Fit
	// SurveyInvertOptions bounds the two-layer inversion.
	SurveyInvertOptions = wenner.InvertOptions
)

// ApparentResistivity evaluates the Wenner forward model: the apparent
// resistivity a four-electrode array with spacing a would read over the
// soil model.
func ApparentResistivity(m SoilModel, a float64) float64 {
	return wenner.ApparentResistivity(m, a)
}

// ApparentResistivitySchlumberger evaluates the Schlumberger-array forward
// model (current electrodes at ±L, potential electrodes at ±l).
func ApparentResistivitySchlumberger(m SoilModel, bigL, smallL float64) float64 {
	return wenner.ApparentResistivitySchlumberger(m, bigL, smallL)
}

// SimulateSurvey synthesizes Wenner measurements over a model at the given
// spacings, with optional multiplicative noise drawn from randn.
func SimulateSurvey(m SoilModel, spacings []float64, noise float64, randn func() float64) []SurveyMeasurement {
	return wenner.Sound(m, spacings, noise, randn)
}

// SurveySpacings returns n logarithmically spaced electrode spacings.
func SurveySpacings(aMin, aMax float64, n int) []float64 {
	return wenner.LogSpacings(aMin, aMax, n)
}

// FitTwoLayerSoil inverts Wenner measurements into a two-layer soil model.
func FitTwoLayerSoil(data []SurveyMeasurement, opt SurveyInvertOptions) (SoilFit, error) {
	return wenner.InvertTwoLayer(data, opt)
}

// FitUniformSoil returns the best single resistivity and its RMS log misfit.
func FitUniformSoil(data []SurveyMeasurement) (rho, rmsLog float64, err error) {
	return wenner.FitUniform(data)
}

// Field quantities of a solved analysis.

// ElectricFieldAt returns E = −∇V at x in V/m at the configured GPR.
func ElectricFieldAt(res *Result, x Vec3) Vec3 {
	return res.Assembler().Evaluator().ElectricField(x, res.Sigma).Scale(res.GPR)
}

// CurrentDensityAt returns the conduction current density −γ∇V at x in
// A/m² at the configured GPR. The assembler's model is the unit model, so
// its density is scaled by GPR·γ₁.
func CurrentDensityAt(res *Result, x Vec3) Vec3 {
	return res.Assembler().Evaluator().CurrentDensity(x, res.Sigma).Scale(res.DensityScale())
}

// Leakage distribution of a solved analysis.
type (
	// LeakageReport aggregates the per-element leakage distribution.
	LeakageReport = post.LeakageReport
	// ElementLeakage is one element's share of the fault current.
	ElementLeakage = post.ElementLeakage
)

// ComputeLeakage builds the per-element leakage-current distribution in
// physical units (Sigma scaled by GPR·γ₁).
func ComputeLeakage(res *Result) LeakageReport {
	return post.ComputeLeakage(res.Mesh, res.Sigma, res.DensityScale())
}

// WriteLeakageCSV emits the leakage distribution as CSV.
func WriteLeakageCSV(w io.Writer, rep LeakageReport) error {
	return post.WriteLeakageCSV(w, rep)
}

// WriteLeakageSummary prints the top-n leaking elements and aggregates.
func WriteLeakageSummary(w io.Writer, rep LeakageReport, n int) error {
	return post.WriteLeakageSummary(w, rep, n)
}

// StepVoltageProfile samples the gradient-based step voltage |E_horizontal|
// × 1 m at n ≥ 2 points along a surface line. Cancellation is observed at
// point boundaries.
func StepVoltageProfile(ctx context.Context, res *Result, x0, y0, x1, y1 float64, n int) (s, step []float64, err error) {
	return post.StepProfileByField(ctx, res.Assembler(), res.Sigma, res.GPR, x0, y0, x1, y1, n)
}

// CrossSectionPotential samples the potential on a vertical plane from
// (x0, y0) to (x1, y1) down to maxDepth (raster X = arc length, Y = depth).
// Cancellation is observed at sample-point boundaries.
func CrossSectionPotential(ctx context.Context, res *Result, x0, y0, x1, y1, maxDepth float64, opt SurfaceOptions) (*Raster, error) {
	return post.CrossSection(ctx, res.Assembler(), res.Sigma, res.GPR, x0, y0, x1, y1, maxDepth, opt)
}
