// Package repro is a from-scratch Go reproduction of
//
//	Hui (Wendy) Wang, Laks V.S. Lakshmanan.
//	"Efficient Secure Query Evaluation over Encrypted XML Databases."
//	VLDB 2006.
//
// The public API lives in package repro/secxml; the paper's
// subsystems live under internal/ (see DESIGN.md for the full
// inventory and EXPERIMENTS.md for paper-vs-measured results).
// The paper's evaluation section (§7) is asserted as shipped-byte
// shapes by internal/core's TestWorkloadEquivalence; bench_test.go
// holds the substrate micro-benchmarks.
package repro
