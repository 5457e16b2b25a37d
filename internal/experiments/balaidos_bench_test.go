package experiments

import (
	"context"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/grid"
)

func benchBalaidosAssemblyCase(b *testing.B, soilCase int) {
	b.Helper()
	c := BalaidosModels()[soilCase]
	mesh, _, err := core.BuildMesh(grid.Balaidos(), c.Model, core.Config{RodElements: c.RodElements})
	if err != nil {
		b.Fatal(err)
	}
	asm, err := bem.New(mesh, c.Model, Default().bemOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := asm.MatrixCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalaidosAssemblyFlat(b *testing.B)  { benchBalaidosAssemblyCase(b, 1) }
func BenchmarkBalaidosAssemblyFlatC(b *testing.B) { benchBalaidosAssemblyCase(b, 2) }
