package linalg

// ReferenceCholesky exports the textbook factorization oracle of
// reference_test.go to the external tests of package linalg_test.
var ReferenceCholesky = referenceCholesky
