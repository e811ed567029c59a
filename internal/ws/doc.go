// Package ws implements world-sets in the style of the U-relations
// paper (Section 2): a finite set of variables over finite domains,
// represented relationally by a world table W(Var, Rng); a possible
// world is a total valuation of the variables. ws-descriptors — partial
// valuations whose graph is a subset of W — annotate U-relation tuples
// and identify the subset of worlds a tuple belongs to.
//
// The package also carries the paper's Section 7 extension: an optional
// probability column on W turning the world-set into a product
// distribution over independent variables.
//
// Variable ids are dense — the trivial variable 0, then 1, 2, … in the
// order NewVar allocates them — so a WorldTable keeps its domains,
// distributions and names in slices indexed by Var, and a decoder
// (store.DecodeWorldTable) fills one with AppendVar, which keeps the
// domain it is handed instead of copying it.
//
// Paper-section map: world.go — the world table and valuations
// (Section 2, Definition 2.1); descriptor.go — ws-descriptors, their
// consistency check and the ψ-conditions joined on during query
// evaluation (Sections 2-3).
package ws
