// Package wsd implements world-set decompositions (WSDs), the
// representation system of Antova, Koch and Olteanu ("10^10^6 Worlds and
// Beyond", ICDE 2007), which Section 5 of the U-relations paper uses as
// a succinctness baseline: a world-set is decomposed into a product of
// independent components, each component a relation whose rows are its
// local worlds and whose columns are tuple fields.
//
// WSDs are essentially normalized U-relational databases — each
// variable corresponds to a component and each domain value to one of
// its local worlds (Figure 5) — so this package provides exactly the
// conversions the paper describes, plus world enumeration and the size
// accounting used in the succinctness experiments (Theorem 5.2).
//
// Paper-section map: wsd.go — the representation and its conversions
// (Section 5, Figure 5); chain.go — the chain world-sets behind the
// Figure 7 exponential-separation experiment.
package wsd
