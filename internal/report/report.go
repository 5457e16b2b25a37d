// Package report renders a complete grounding-design report as a standalone
// HTML document: design parameters, stage timings, IEEE Std 80 verdicts,
// leakage tables and embedded SVG potential contours — the deliverable the
// "Computer Aided Design system for grounding analysis" of §5 produces for
// a design review.
package report

import (
	"bytes"
	"context"
	"fmt"
	"html/template"
	"io"

	"earthing/internal/core"
	"earthing/internal/experiments"
	"earthing/internal/grid"
	"earthing/internal/post"
	"earthing/internal/safety"
)

// Options configures BuildHTML.
type Options struct {
	// Title heads the document (default "Grounding system analysis").
	Title string
	// Criteria, when FaultDuration > 0, adds the IEEE Std 80 verdict
	// section; the voltages are computed from the result.
	Criteria safety.Criteria
	// SurfaceNX/NY control the embedded contour raster (default 48).
	SurfaceNX, SurfaceNY int
	// ContourLevels is the number of equipotential lines (default 12).
	ContourLevels int
	// TopLeakage is the number of rows in the leakage table (default 10).
	TopLeakage int
	// VoltageRes is the touch/step sampling resolution in metres
	// (default 2).
	VoltageRes float64
}

func (o Options) withDefaults() Options {
	if o.Title == "" {
		o.Title = "Grounding system analysis"
	}
	if o.SurfaceNX <= 0 {
		o.SurfaceNX = 48
	}
	if o.SurfaceNY <= 0 {
		o.SurfaceNY = 48
	}
	if o.ContourLevels <= 0 {
		o.ContourLevels = 12
	}
	if o.TopLeakage <= 0 {
		o.TopLeakage = 10
	}
	if o.VoltageRes <= 0 {
		o.VoltageRes = 2
	}
	return o
}

// page is the template payload.
type page struct {
	Title      string
	Soil       string
	Elements   int
	DoF        int
	TotalLen   string
	GPR        string
	Req        string
	Current    string
	Timings    []kv
	HasSafety  bool
	Verdict    string
	VerdictOK  bool
	StepRow    string
	TouchRow   string
	MeshRow    string
	Leakage    []leakRow
	RodShare   string
	PlanSVG    template.HTML
	ContourSVG template.HTML
}

type kv struct{ K, V string }

type leakRow struct {
	Rank     int
	Kind     string
	Position string
	Current  string
	Share    string
}

// BuildHTML computes the report sections from a solved analysis and renders
// the document.
func BuildHTML(w io.Writer, res *core.Result, g *grid.Grid, opt Options) error {
	opt = opt.withDefaults()
	p := page{
		Title:    opt.Title,
		Soil:     res.Model.Describe(),
		Elements: len(res.Mesh.Elements),
		DoF:      res.Mesh.NumDoF,
		TotalLen: fmt.Sprintf("%.1f m", res.Mesh.TotalLength()),
		GPR:      fmt.Sprintf("%.0f V", res.GPR),
		Req:      fmt.Sprintf("%.4f Ω", res.Req),
		Current:  fmt.Sprintf("%.2f kA", res.Current/1000),
		Timings: []kv{
			{"Data input", res.Timings.Input.String()},
			{"Preprocessing", res.Timings.Preprocess.String()},
			{"Matrix generation", res.Timings.MatrixGen.String()},
			{"Linear solve", res.Timings.Solve.String()},
			{"Results", res.Timings.Results.String()},
		},
	}

	// Plan drawing.
	var plan bytes.Buffer
	if err := experiments.PlanSVG(&plan, g); err != nil {
		return err
	}
	p.PlanSVG = template.HTML(plan.String()) //nolint:gosec // generated internally

	// Surface potential contours.
	raster := post.SurfacePotential(res.Assembler(), res.Mesh, res.Sigma, res.GPR,
		post.SurfaceOptions{NX: opt.SurfaceNX, NY: opt.SurfaceNY})
	lines := post.Contours(raster, post.EquallySpacedLevels(raster, opt.ContourLevels))
	var contours bytes.Buffer
	if err := post.WriteSVG(&contours, raster, lines); err != nil {
		return err
	}
	p.ContourSVG = template.HTML(contours.String()) //nolint:gosec // generated internally

	// Leakage.
	rep := post.ComputeLeakage(res.Mesh, res.Sigma, res.GPR)
	p.RodShare = fmt.Sprintf("%.1f%%", 100*rep.RodShare)
	n := opt.TopLeakage
	if n > len(rep.Elements) {
		n = len(rep.Elements)
	}
	for i, e := range rep.Elements[:n] {
		kind := "grid"
		if e.Vertical {
			kind = "rod"
		}
		p.Leakage = append(p.Leakage, leakRow{
			Rank:     i + 1,
			Kind:     kind,
			Position: fmt.Sprintf("(%.1f, %.1f, %.2f)", e.Midpoint.X, e.Midpoint.Y, e.Midpoint.Z),
			Current:  fmt.Sprintf("%.1f A", e.Current),
			Share:    fmt.Sprintf("%.2f%%", 100*e.Share),
		})
	}

	// Safety section.
	if opt.Criteria.FaultDuration > 0 {
		//lint:ignore ctxflow BuildHTML takes no ctx to pass on
		v, err := post.ComputeVoltagesCtx(context.Background(), res.Assembler(), res.Mesh, res.Sigma, res.GPR, opt.VoltageRes, post.SurfaceOptions{})
		if err != nil {
			return err
		}
		verdict, err := opt.Criteria.Check(v.MaxStep, v.MaxTouch, v.MaxMesh)
		if err != nil {
			return err
		}
		p.HasSafety = true
		p.Verdict = verdict.String()
		p.VerdictOK = verdict.Safe()
		p.StepRow = fmt.Sprintf("%.0f / %.0f V", verdict.StepActual, verdict.StepLimit)
		p.TouchRow = fmt.Sprintf("%.0f / %.0f V", verdict.TouchActual, verdict.TouchLimit)
		p.MeshRow = fmt.Sprintf("%.0f / %.0f V", verdict.MeshActual, verdict.TouchLimit)
	}

	return tmpl.Execute(w, p)
}

var tmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{{.Title}}</title>
<style>
 body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:60rem;color:#222}
 h1{font-size:1.5rem} h2{font-size:1.15rem;margin-top:2rem;border-bottom:1px solid #ddd}
 table{border-collapse:collapse;margin:.5rem 0} td,th{border:1px solid #ccc;padding:.25rem .6rem;text-align:left}
 .ok{color:#0a6} .bad{color:#c22;font-weight:bold}
 .figs{display:flex;gap:2rem;flex-wrap:wrap} .figs svg{max-width:28rem;height:auto;border:1px solid #eee}
</style></head><body>
<h1>{{.Title}}</h1>
<h2>Design parameters</h2>
<table>
<tr><th>Soil model</th><td>{{.Soil}}</td></tr>
<tr><th>Discretization</th><td>{{.Elements}} elements, {{.DoF}} degrees of freedom</td></tr>
<tr><th>Electrode length</th><td>{{.TotalLen}}</td></tr>
<tr><th>Ground potential rise</th><td>{{.GPR}}</td></tr>
<tr><th>Equivalent resistance R<sub>eq</sub></th><td><b>{{.Req}}</b></td></tr>
<tr><th>Fault current I<sub>Γ</sub></th><td><b>{{.Current}}</b></td></tr>
</table>
{{if .HasSafety}}
<h2>IEEE Std 80 verdict</h2>
<p class="{{if .VerdictOK}}ok{{else}}bad{{end}}">{{if .VerdictOK}}DESIGN PASSES{{else}}DESIGN FAILS{{end}}: {{.Verdict}}</p>
<table>
<tr><th>Quantity</th><th>computed / limit</th></tr>
<tr><td>Step voltage</td><td>{{.StepRow}}</td></tr>
<tr><td>Touch voltage</td><td>{{.TouchRow}}</td></tr>
<tr><td>Mesh voltage</td><td>{{.MeshRow}}</td></tr>
</table>
{{end}}
<h2>Plan and surface potential</h2>
<div class="figs">
<figure>{{.PlanSVG}}<figcaption>Grid plan (rods as dots)</figcaption></figure>
<figure>{{.ContourSVG}}<figcaption>Earth-surface equipotentials at GPR</figcaption></figure>
</div>
<h2>Leakage distribution</h2>
<p>Vertical rods carry {{.RodShare}} of the fault current.</p>
<table>
<tr><th>#</th><th>kind</th><th>midpoint (x, y, z)</th><th>current</th><th>share</th></tr>
{{range .Leakage}}<tr><td>{{.Rank}}</td><td>{{.Kind}}</td><td>{{.Position}}</td><td>{{.Current}}</td><td>{{.Share}}</td></tr>
{{end}}</table>
<h2>Solver stages</h2>
<table>
{{range .Timings}}<tr><th>{{.K}}</th><td>{{.V}}</td></tr>
{{end}}</table>
<p><small>Generated by the earthing BEM solver (reproduction of Colominas et
al., ICPP 2000). Not a substitute for a licensed engineering review.</small></p>
</body></html>
`))
