// Command designer synthesizes a grounding grid automatically: it drives the
// design-loop engine, searching lattice density per direction, perimeter rod
// count and burial depth to minimize copper cost subject to the IEEE Std 80
// touch/step/mesh limits. Each generation's new candidates are analyzed one
// at a time at the -workers width, all on one shared image ladder, and the
// search is bit-reproducible at any -workers setting for a fixed -seed.
//
// Examples:
//
//	designer -width 70 -height 70 -soil two-layer -gamma1 0.0067 -gamma2 0.025 -h1 1.5 \
//	         -fault 2500 -fault-t 0.5 -rock-rho 2500 > design.txt
//	designer -width 40 -height 30 -soil uniform -gamma1 0.02 -fault 800 -json
//	designer -width 60 -height 60 -soil uniform -gamma1 0.02 -fault 1000 -html design.html
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"earthing"
	"earthing/internal/fsio"
	"earthing/internal/report"
	"earthing/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "designer:", err)
		os.Exit(1)
	}
}

// run parses args and executes the synthesis, writing the whole transcript
// (progress, summary, winning geometry) to stdout. Factored out of main so
// the end-to-end tests can drive the CLI in-process against golden
// transcripts.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("designer", flag.ContinueOnError)
	var (
		width     = fs.Float64("width", 60, "plan width, m")
		height    = fs.Float64("height", 60, "plan height, m")
		radius    = fs.Float64("radius", 0.006, "conductor radius, m")
		minLines  = fs.Int("min-lines", 0, "minimum lattice lines per direction (0 = engine default)")
		maxLines  = fs.Int("max-lines", 0, "maximum lattice lines per direction (0 = engine default)")
		maxRods   = fs.Int("max-rods", 0, "maximum perimeter rods (0 = engine default)")
		rodLen    = fs.Float64("rod-len", 0, "rod length, m (0 = engine default)")
		rodRadius = fs.Float64("rod-radius", 0, "rod radius, m (0 = engine default)")
		minDepth  = fs.Float64("min-depth", 0, "minimum burial depth, m (0 = engine default)")
		maxDepth  = fs.Float64("max-depth", 0, "maximum burial depth, m (0 = engine default)")
		depthStep = fs.Float64("depth-step", 0, "burial depth quantization, m (0 = engine default)")
		condCost  = fs.Float64("cost-conductor", 0, "cost per metre of lattice conductor (0 = engine default)")
		rodCost   = fs.Float64("cost-rod", 0, "cost per metre of rod (0 = engine default)")
		soilKind  = fs.String("soil", "uniform", "soil model: uniform | two-layer")
		gamma1    = fs.Float64("gamma1", 0.02, "layer 1 conductivity (ohm·m)^-1")
		gamma2    = fs.Float64("gamma2", 0.02, "layer 2 conductivity (two-layer)")
		h1        = fs.Float64("h1", 1.0, "layer 1 thickness, m (two-layer)")
		fault     = fs.Float64("fault", 0, "design fault current, A (required)")
		faultT    = fs.Float64("fault-t", 0.5, "fault clearing time, s")
		soilRho   = fs.Float64("soil-rho", 0, "surface soil resistivity, ohm·m (0 = 1/gamma1)")
		rockRho   = fs.Float64("rock-rho", 0, "crushed-rock resistivity, ohm·m (0 = none)")
		rockH     = fs.Float64("rock-h", 0.1, "crushed-rock thickness, m")
		weight    = fs.String("weight", "50kg", "body weight for the limits: 50kg | 70kg")
		vres      = fs.Float64("voltage-res", 0, "surface sampling resolution, m (0 = engine default)")
		starts    = fs.Int("starts", 0, "multi-start descents (0 = engine default)")
		seed      = fs.Int64("seed", 0, "search seed (0 = engine default)")
		maxEvals  = fs.Int("max-evals", 0, "objective evaluation budget (0 = engine default)")
		seriesTol = fs.Float64("series-tol", 0, "image-series truncation tolerance (0 = engine default)")
		rodElems  = fs.Int("rod-elements", 0, "minimum elements per rod")
		workers   = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		schedule  = fs.String("schedule", "dynamic,1", "loop schedule: static|dynamic|guided[,chunk]")
		jsonOut   = fs.Bool("json", false, "stream NDJSON progress lines instead of text")
		htmlOut   = fs.String("html", "", "write the winning design's HTML report here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *fault <= 0 {
		return fmt.Errorf("-fault is required (the design fault current drives the safety checks)")
	}

	model, err := server.SoilSpec{Kind: *soilKind, Gamma1: *gamma1, Gamma2: *gamma2, H1: *h1}.Build()
	if err != nil {
		return err
	}
	sch, err := earthing.ParseSchedule(*schedule)
	if err != nil {
		return err
	}
	crit := earthing.SafetyCriteria{
		FaultDuration:    *faultT,
		SoilRho:          *soilRho,
		SurfaceRho:       *rockRho,
		SurfaceThickness: *rockH,
	}
	if crit.SoilRho == 0 {
		crit.SoilRho = 1 / *gamma1
	}
	switch *weight {
	case "50kg":
		crit.Weight = earthing.Body50kg
	case "70kg":
		crit.Weight = earthing.Body70kg
	default:
		return fmt.Errorf("unknown -weight %q (want 50kg or 70kg)", *weight)
	}

	spec := earthing.OptimizeSpec{
		Width: *width, Height: *height,
		Model:           model,
		FaultCurrent:    *fault,
		Safety:          crit,
		ConductorRadius: *radius,
		RodLength:       *rodLen,
		RodRadius:       *rodRadius,
		MinLines:        *minLines,
		MaxLines:        *maxLines,
		MaxRods:         *maxRods,
		MinDepth:        *minDepth,
		MaxDepth:        *maxDepth,
		DepthStep:       *depthStep,
		ConductorCost:   *condCost,
		RodCost:         *rodCost,
		VoltageRes:      *vres,
	}
	opt := earthing.OptimizeOptions{
		Starts:   *starts,
		Seed:     *seed,
		MaxEvals: *maxEvals,
	}
	opt.Config.RodElements = *rodElems
	opt.Config.BEM.SeriesTol = *seriesTol
	opt.Config.BEM.Workers = *workers
	opt.Config.BEM.Schedule = sch

	enc := json.NewEncoder(stdout)
	emit := func(p earthing.OptimizeProgress) error {
		if *jsonOut {
			return enc.Encode(p)
		}
		return printProgress(stdout, p)
	}
	ctx := context.Background()
	best, stats, err := earthing.OptimizeStream(ctx, spec, opt, emit)
	noFeasible := errors.Is(err, earthing.ErrNoFeasibleOptimize)
	if err != nil && !noFeasible {
		return err
	}

	if *jsonOut {
		if err := enc.Encode(struct {
			Final bool                      `json:"final"`
			Best  *earthing.OptimizedDesign `json:"best"`
			Stats earthing.OptimizeStats    `json:"stats"`
			Error string                    `json:"error,omitempty"`
		}{true, best, stats, errString(err)}); err != nil {
			return err
		}
	} else {
		//lint:ignore errdrop transcript status line; a failed console write has no recovery path
		fmt.Fprintf(stdout, "\nsearch: %d candidates evaluated, %d cache hits of %d requests, %d generations, %d/%d starts converged\n",
			stats.Evaluated, stats.CacheHits, stats.Requested, stats.Generations, stats.Converged, stats.Starts)
		printSelected(stdout, best, spec.FaultCurrent)
		//lint:ignore errdrop transcript status line; a failed console write has no recovery path
		fmt.Fprintln(stdout, "grid:")
		if err := earthing.WriteGrid(stdout, best.Grid); err != nil {
			return err
		}
	}
	if noFeasible {
		return err
	}

	if *htmlOut != "" {
		// Re-analyze at the design-fault GPR so the report's potentials and
		// voltages are at fault scale.
		reportRes, err := earthing.Analyze(ctx, best.Grid, model, earthing.Config{
			GPR:         best.GPR,
			RodElements: *rodElems,
			BEM:         earthing.BEMOptions{Workers: *workers, Schedule: sch, SeriesTol: *seriesTol},
		})
		if err != nil {
			return err
		}
		err = fsio.WriteFile(*htmlOut, func(f io.Writer) error {
			return report.BuildHTML(ctx, f, reportRes, best.Grid, report.Options{
				Title:    "Automated grounding design",
				Criteria: crit,
			})
		})
		if err != nil {
			return err
		}
		//lint:ignore errdrop transcript status line; a failed console write has no recovery path
		fmt.Fprintln(stdout, "HTML report written to", *htmlOut)
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// printProgress renders one improving generation as a trace line.
func printProgress(w io.Writer, p earthing.OptimizeProgress) error {
	b := p.Best
	_, err := fmt.Fprintf(w, "gen %2d: %dx%-2d lattice, %d rods, depth %.2f m  cost %8.1f  Req %.4f ohm  GPR %7.1f V  touch %6.1f/%.1f V  step %6.1f/%.1f V  [%s]\n",
		p.Generation, b.NX, b.NY, b.Rods, b.Depth, b.Cost, b.Req, b.GPR,
		b.Voltages.MaxTouch, b.Verdict.TouchLimit,
		b.Voltages.MaxStep, b.Verdict.StepLimit,
		feasibility(b.Feasible))
	return err
}

// printSelected renders the final design summary.
func printSelected(w io.Writer, d *earthing.OptimizedDesign, fault float64) {
	//lint:ignore errdrop transcript status line; a failed console write has no recovery path
	fmt.Fprintf(w, "selected: %dx%d lattice, %d rods, depth %.2f m (cost %.1f, %s)\n",
		d.NX, d.NY, d.Rods, d.Depth, d.Cost, feasibility(d.Feasible))
	//lint:ignore errdrop transcript status line; a failed console write has no recovery path
	fmt.Fprintf(w, "  Req %.4f ohm -> GPR %.1f V at %.0f A\n", d.Req, d.GPR, fault)
	//lint:ignore errdrop transcript status line; a failed console write has no recovery path
	fmt.Fprintf(w, "  touch %.1f V (limit %.1f), step %.1f V (limit %.1f), mesh %.1f V (limit %.1f)\n",
		d.Voltages.MaxTouch, d.Verdict.TouchLimit,
		d.Voltages.MaxStep, d.Verdict.StepLimit,
		d.Voltages.MaxMesh, d.Verdict.TouchLimit)
}

func feasibility(ok bool) string {
	if ok {
		return "feasible"
	}
	return "violates limits"
}
