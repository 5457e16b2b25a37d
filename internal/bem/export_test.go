package bem

// The closed-form oracles of reference_test.go, exported to the external
// differential tests of package bem_test.
var (
	ReferenceMatrix    = (*Assembler).referenceMatrix
	ReferencePotential = (*Assembler).referencePotential
	ReferenceGradient  = (*Assembler).referenceGradient
)
