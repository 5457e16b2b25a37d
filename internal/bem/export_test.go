package bem

// The closed-form oracles of reference_test.go, exported to the external
// differential tests of package bem_test.
var (
	ReferenceMatrix    = (*Assembler).referenceMatrix
	ReferencePotential = (*Assembler).referencePotential
	ReferenceGradient  = (*Assembler).referenceGradient
)

// ConvergedTol is the series tolerance of the layered differential tests.
const ConvergedTol = convergedTol

// Fig54Points is the Figure 5.4 surface raster over a mesh.
var Fig54Points = fig54Points
