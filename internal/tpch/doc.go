// Package tpch is a deterministic, from-scratch Go reimplementation of
// the TPC-H population generator (dbgen), extended — exactly as the
// paper's Section 6 extends dbgen 2.6 — with uncertainty injection:
// a fraction x of tuple fields becomes uncertain, uncertain fields are
// grouped into world-set variables whose dependent-field counts follow
// a Zipf distribution controlled by the correlation ratio z, each field
// carries up to m alternative values, and a variable with k dependent
// fields keeps a fraction p^(k-1) of the product of its fields'
// alternative counts as its domain (the constraint-chasing survival
// rate).
//
// One scale unit here equals 1/100 of a TPC-H scale factor, so the
// paper's scale sweep 0.01..1 maps onto laptop-sized in-memory data
// while preserving all relative proportions.
//
// Paper-section map: gen.go/params.go/dict.go — the Section 6 uncertain
// dbgen and the Figure 9 dataset characteristics; queries.go — the
// Figure 8 benchmark queries Q1/Q2/Q3; tuplelevel.go — the tuple-level
// U-relation variant of the Figure 14 comparison.
package tpch
