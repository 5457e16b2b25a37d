package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

func TestWriteJSONRoundTrip(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	res, err := AnalyzeCtx(context.Background(), g, soil.NewTwoLayer(0.005, 0.016, 1.0), Config{
		GPR: 10_000,
		BEM: bem.Options{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rep.ReqOhms != res.Req || rep.CurrentAmps != res.Current || rep.GPRVolts != 10_000 {
		t.Errorf("report fields wrong: %+v", rep)
	}
	if rep.Elements != len(res.Mesh.Elements) || rep.DoF != res.Mesh.NumDoF {
		t.Errorf("mesh fields wrong: %+v", rep)
	}
	if rep.Timings.MatrixGenNS <= 0 || rep.Timings.TotalNS < rep.Timings.MatrixGenNS {
		t.Errorf("timings wrong: %+v", rep.Timings)
	}
	if rep.CGIterations <= 0 {
		t.Errorf("CG iterations missing: %+v", rep)
	}
	if rep.Workers != 4 || rep.PredictedSpeedup <= 0 {
		t.Errorf("parallel fields wrong: %+v", rep)
	}
	if rep.ElementKind != "linear" {
		t.Errorf("element kind %q", rep.ElementKind)
	}
}

func TestJSONSequentialOmitsParallelFields(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	res, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), Config{BEM: bem.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("predictedSpeedup")) {
		t.Error("sequential report should omit predictedSpeedup")
	}
}
