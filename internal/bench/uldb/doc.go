// Package uldb implements ULDBs — databases with uncertainty and
// lineage (Benjelloun, Das Sarma, Halevy, Widom, VLDB 2006; the Trio
// system) — as the tuple-level baseline of Section 5 of the U-relations
// paper. A ULDB relation is a set of x-tuples, each a list of
// alternatives; a world chooses one alternative per x-tuple (or none
// for '?'-optional x-tuples); lineage ties alternatives across
// x-tuples: an alternative may only appear in worlds that also choose
// every alternative its lineage points to.
//
// The package provides construction, world enumeration, query
// evaluation with lineage propagation (select/project/join — the regime
// of the paper's Figure 14 comparison, which runs without erroneous-
// tuple removal), data minimization (removal of erroneous tuples via
// lineage-consistency checking), and the linear translation of ULDBs
// into U-relational databases (Lemma 5.5).
//
// Paper-section map: uldb.go — the representation and world semantics
// (Section 5); query.go — lineage-propagating evaluation (Figure 14
// regime); convert.go — the Lemma 5.5 translation and the or-set
// constructions behind the Theorem 5.6 separation.
package uldb
