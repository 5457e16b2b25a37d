// Command groundsim analyzes a grounding grid: it computes the equivalent
// resistance, fault current, surface potentials and IEEE Std 80 safety
// verdict for a grid described in the text format of package grid (or one of
// the built-in paper grids), under a uniform, two-layer or N-layer soil
// model.
//
// Examples:
//
//	groundsim -builtin barbera -soil two-layer -gamma1 0.005 -gamma2 0.016 -h1 1.0 -gpr 10000
//	groundsim -grid mygrid.txt -soil uniform -gamma1 0.02 -surface out.csv
//	groundsim -builtin balaidos -soil uniform -gamma1 0.02 -check -fault-t 0.5
//	groundsim -builtin balaidos -sweep scenarios.json -gpr 10000
//
// The -sweep mode batch-solves many soil/GPR variants of one grid through
// the sweep engine (one assembly per distinct soil model, amortized
// meshing); the scenario file is a JSON array of {id, soil, gpr} objects
// with the same soil spec as the groundd server.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"earthing"
	"earthing/internal/fsio"
	"earthing/internal/report"
	"earthing/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "groundsim:", err)
		os.Exit(1)
	}
}

// run parses args and executes the analysis, writing all output to stdout.
// Factored out of main so the end-to-end tests can drive the CLI in-process
// against golden transcripts.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("groundsim", flag.ContinueOnError)
	var (
		gridFile = fs.String("grid", "", "grid file in text format (conductor/rod lines); - for stdin")
		builtin  = fs.String("builtin", "", "built-in grid: barbera | balaidos")
		soilKind = fs.String("soil", "uniform", "soil model: uniform | two-layer | multi")
		gamma1   = fs.Float64("gamma1", 0.02, "layer 1 conductivity (ohm·m)^-1")
		gamma2   = fs.Float64("gamma2", 0.02, "layer 2 conductivity (two-layer)")
		h1       = fs.Float64("h1", 1.0, "layer 1 thickness in m (two-layer)")
		multi    = fs.String("multi", "", "multi: comma list gamma1,h1,gamma2,h2,...,gammaN")
		gpr      = fs.Float64("gpr", 10_000, "ground potential rise in volts")
		maxLen   = fs.Float64("maxlen", 0, "max element length in m (0 = one element per conductor)")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		schedule = fs.String("schedule", "dynamic,1", "loop schedule: static|dynamic|guided[,chunk]")
		sweep    = fs.String("sweep", "", "JSON scenario file for a batch solve ([{id, soil, gpr}, ...]); - for stdin")
		surface  = fs.String("surface", "", "write surface potential raster CSV to this file")
		stepmap  = fs.String("stepmap", "", "write per-metre step voltage raster CSV to this file")
		ascii    = fs.Bool("ascii", false, "print an ASCII surface potential map")
		jsonOut  = fs.Bool("json", false, "emit the analysis summary as JSON instead of text")
		htmlOut  = fs.String("html", "", "write a full HTML design report to this file")
		leakage  = fs.Int("leakage", 0, "print the top-N leaking elements")
		check    = fs.Bool("check", false, "check IEEE Std 80 step/touch limits")
		faultT   = fs.Float64("fault-t", 0.5, "fault clearing time in s (with -check)")
		rockRho  = fs.Float64("rock-rho", 0, "surface layer resistivity in ohm·m (with -check; 0 = none)")
		rockH    = fs.Float64("rock-h", 0.1, "surface layer thickness in m (with -check)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d must be non-negative", *workers)
	}

	g, err := loadGrid(*gridFile, *builtin)
	if err != nil {
		return err
	}
	sch, err := earthing.ParseSchedule(*schedule)
	if err != nil {
		return err
	}
	ctx := context.Background()

	if *sweep != "" {
		cfg := earthing.Config{
			GPR:        *gpr,
			MaxElemLen: *maxLen,
			BEM:        earthing.BEMOptions{Workers: *workers, Schedule: sch},
		}
		return runSweep(ctx, g, *sweep, cfg, *jsonOut, stdout)
	}

	model, err := buildSoil(*soilKind, *gamma1, *gamma2, *h1, *multi)
	if err != nil {
		return err
	}
	res, err := earthing.Analyze(ctx, g, model, earthing.Config{
		GPR:        *gpr,
		MaxElemLen: *maxLen,
		BEM:        earthing.BEMOptions{Workers: *workers, Schedule: sch},
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := res.WriteJSON(stdout); err != nil {
			return err
		}
	} else if err := res.WriteReport(stdout); err != nil {
		return err
	}

	if *surface != "" || *ascii {
		r, err := earthing.SurfacePotential(ctx, res, earthing.SurfaceOptions{Workers: *workers})
		if err != nil {
			return err
		}
		if *ascii {
			if err := earthing.WriteRasterASCII(stdout, r); err != nil {
				return err
			}
		}
		if *surface != "" {
			err := fsio.WriteFile(*surface, func(f io.Writer) error {
				return earthing.WriteRasterCSV(f, r)
			})
			if err != nil {
				return err
			}
			//lint:ignore errdrop transcript status line; a failed console write has no recovery path
			fmt.Fprintln(stdout, "surface potential written to", *surface)
		}
	}

	if *stepmap != "" {
		r, err := earthing.StepVoltageMap(ctx, res, earthing.SurfaceOptions{Workers: *workers})
		if err != nil {
			return err
		}
		err = fsio.WriteFile(*stepmap, func(f io.Writer) error {
			return earthing.WriteRasterCSV(f, r)
		})
		if err != nil {
			return err
		}
		//lint:ignore errdrop transcript status line; a failed console write has no recovery path
		fmt.Fprintln(stdout, "step voltage map written to", *stepmap)
		if *check {
			crit := earthing.SafetyCriteria{
				FaultDuration:    *faultT,
				SoilRho:          1 / *gamma1,
				SurfaceRho:       *rockRho,
				SurfaceThickness: *rockH,
			}
			if err := crit.Validate(); err != nil {
				return err
			}
			limit := crit.StepLimit()
			_, max := r.MinMax()
			//lint:ignore errdrop transcript status line; a failed console write has no recovery path
			fmt.Fprintf(stdout, "step map: max %.0f V vs limit %.0f V; %.1f%% of surveyed area exceeds\n",
				max, limit, 100*earthing.FractionExceeding(r.V, limit))
		}
	}

	if *htmlOut != "" {
		opt := report.Options{}
		if *check {
			opt.Criteria = earthing.SafetyCriteria{
				FaultDuration:    *faultT,
				SoilRho:          1 / *gamma1,
				SurfaceRho:       *rockRho,
				SurfaceThickness: *rockH,
			}
		}
		err := fsio.WriteFile(*htmlOut, func(f io.Writer) error {
			return report.BuildHTML(ctx, f, res, g, opt)
		})
		if err != nil {
			return err
		}
		//lint:ignore errdrop transcript status line; a failed console write has no recovery path
		fmt.Fprintln(stdout, "HTML report written to", *htmlOut)
	}

	if *leakage > 0 {
		rep := earthing.ComputeLeakage(res)
		if err := earthing.WriteLeakageSummary(stdout, rep, *leakage); err != nil {
			return err
		}
	}

	if *check {
		v, err := earthing.ComputeVoltages(ctx, res, 1, earthing.SurfaceOptions{Workers: *workers})
		if err != nil {
			return err
		}
		crit := earthing.SafetyCriteria{
			FaultDuration:    *faultT,
			SoilRho:          1 / *gamma1,
			SurfaceRho:       *rockRho,
			SurfaceThickness: *rockH,
		}
		verdict, err := crit.Check(v.MaxStep, v.MaxTouch, v.MaxMesh)
		if err != nil {
			return err
		}
		//lint:ignore errdrop transcript status line; a failed console write has no recovery path
		fmt.Fprintln(stdout, "IEEE Std 80:", verdict)
		if !verdict.Safe() {
			//lint:ignore errdrop transcript status line; a failed console write has no recovery path
			fmt.Fprintln(stdout, "DESIGN NOT SAFE — increase conductor density, add rods, or improve the surface layer")
		}
	}
	return nil
}

// sweepSpec is one line of the -sweep scenario file: the soil in the same
// JSON spec the groundd server accepts, plus an optional id and GPR (0
// inherits the -gpr flag).
type sweepSpec struct {
	ID   string          `json:"id,omitempty"`
	Soil server.SoilSpec `json:"soil"`
	GPR  float64         `json:"gpr,omitempty"`
}

// runSweep executes the batch mode: all scenarios of the file against one
// grid, solved through the sweep engine. With -json every result streams as
// one NDJSON line the moment it completes; otherwise a summary table in
// scenario order is printed at the end.
func runSweep(ctx context.Context, g *earthing.Grid, file string, cfg earthing.Config, jsonOut bool, stdout io.Writer) error {
	var rd io.Reader
	if file == "-" {
		rd = os.Stdin
	} else {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		//lint:ignore errdrop read-only descriptor; Close cannot lose data and the specs are already parsed
		defer f.Close()
		rd = f
	}
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var specs []sweepSpec
	if err := dec.Decode(&specs); err != nil {
		return fmt.Errorf("-sweep %s: %w", file, err)
	}
	if len(specs) == 0 {
		return fmt.Errorf("-sweep %s: no scenarios", file)
	}

	scens := make([]earthing.SweepScenario, len(specs))
	models := make([]earthing.SoilModel, len(specs))
	for i, sp := range specs {
		model, err := sp.Soil.Build()
		if err != nil {
			return fmt.Errorf("-sweep scenario %d: %w", i, err)
		}
		models[i] = model
		scens[i] = earthing.SweepScenario{ID: sp.ID, Soil: model, GPR: sp.GPR}
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		return earthing.SweepStream(ctx, g, scens, cfg, func(r earthing.SweepResult) error {
			if r.Err != nil {
				// Per-scenario failure: its line reports the error; the rest
				// of the sweep keeps streaming.
				return enc.Encode(map[string]any{
					"id": r.ID, "index": r.Index, "reuse": r.Reuse, "error": r.Err.Error(),
				})
			}
			return enc.Encode(map[string]any{
				"id": r.ID, "index": r.Index, "reuse": r.Reuse,
				"gpr": r.Res.GPR, "reqOhms": r.Res.Req, "currentAmps": r.Res.Current,
				"elements": len(r.Res.Mesh.Elements), "dof": len(r.Res.Sigma),
				"wallMs": float64(r.Wall) / 1e6,
			})
		})
	}

	results, err := earthing.Sweep(ctx, g, scens, cfg)
	if err != nil {
		return err
	}
	//lint:ignore errdrop transcript table; a failed console write has no recovery path
	fmt.Fprintf(stdout, "%-12s %-40s %-10s %12s %10s %12s\n",
		"id", "soil", "reuse", "Req (ohm)", "I (kA)", "GPR (V)")
	var failed int
	for i, r := range results {
		if r.Err != nil {
			failed++
			//lint:ignore errdrop transcript table; a failed console write has no recovery path
			fmt.Fprintf(stdout, "%-12s %-40s %-10s failed: %v\n",
				r.ID, models[i].Describe(), r.Reuse, r.Err)
			continue
		}
		//lint:ignore errdrop transcript table; a failed console write has no recovery path
		fmt.Fprintf(stdout, "%-12s %-40s %-10s %12.4f %10.2f %12.0f\n",
			r.ID, models[i].Describe(), r.Reuse, r.Res.Req, r.Res.Current/1000, r.Res.GPR)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(results))
	}
	return nil
}

func loadGrid(gridFile, builtin string) (*earthing.Grid, error) {
	switch {
	case builtin != "" && gridFile != "":
		return nil, fmt.Errorf("use either -grid or -builtin, not both")
	case builtin == "barbera":
		return earthing.Barbera(), nil
	case builtin == "balaidos":
		return earthing.Balaidos(), nil
	case builtin != "":
		return nil, fmt.Errorf("unknown builtin grid %q", builtin)
	case gridFile == "-":
		return earthing.ReadGrid(os.Stdin)
	case gridFile != "":
		f, err := os.Open(gridFile)
		if err != nil {
			return nil, err
		}
		//lint:ignore errdrop read-only descriptor; Close cannot lose data and the grid is already parsed
		defer f.Close()
		return earthing.ReadGrid(f)
	default:
		return nil, fmt.Errorf("specify -grid FILE or -builtin NAME")
	}
}

// buildSoil builds the -soil model through the soil spec groundd validates
// its requests with, so hostile flags come back as an error, never a panic
// in the facade's soil constructors.
func buildSoil(kind string, gamma1, gamma2, h1 float64, multi string) (earthing.SoilModel, error) {
	spec := server.SoilSpec{Kind: kind, Gamma1: gamma1, Gamma2: gamma2, H1: h1}
	if kind == "multi" {
		if multi == "" {
			return nil, fmt.Errorf("-soil multi requires -multi gamma1,h1,gamma2,...")
		}
		var err error
		if spec.Gammas, spec.Thicknesses, err = parseMulti(multi); err != nil {
			return nil, err
		}
	}
	return spec.Build()
}

// parseMulti splits the -multi flag's alternating gamma/thickness list:
// g1,h1,g2,h2,…,gN (an odd count; N conductivities, N−1 thicknesses).
func parseMulti(multi string) (gammas, hs []float64, err error) {
	parts := strings.Split(multi, ",")
	if len(parts)%2 != 1 {
		return nil, nil, fmt.Errorf("-multi needs an odd count: g1,h1,g2,h2,…,gN")
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad -multi value %q", p)
		}
		if i%2 == 0 {
			gammas = append(gammas, v)
		} else {
			hs = append(hs, v)
		}
	}
	return gammas, hs, nil
}
