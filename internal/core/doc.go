// Package core implements U-relations, the representation system for
// uncertain databases introduced by Antova, Jansen, Koch and Olteanu in
// "Fast and Simple Relational Processing of Uncertain Data" (ICDE 2008).
//
// A U-relational database represents a finite set of possible worlds
// over a logical schema. Each logical relation is vertically partitioned
// into U-relations U[D; T; B]: D is a ws-descriptor (a set of
// variable-to-value assignments identifying the worlds a tuple belongs
// to), T a tuple identifier, and B a subset of the relation's value
// attributes. The package provides:
//
//   - construction and validation of U-relational databases (Section 2),
//   - the possible-worlds semantics via world enumeration (ground truth),
//   - the translation of positive relational algebra + poss into plain
//     relational algebra over the representation (Section 3, Figure 4),
//     evaluated on the engine substrate. One translation (Translate)
//     serves every answer mode: on an existence-complete relation — every
//     row's descriptor implies that its tuple exists — it merges only the
//     partitions the query needs, which is exact for possible and certain
//     answers and for confidence; on any other relation it merges every
//     partition, as the reference TranslateFull always does,
//   - merge, reduction (Proposition 3.3) and the algebraic equivalences
//     of Figure 2 via the engine optimizer,
//   - normalization of ws-descriptors (Section 4, Algorithm 1),
//   - certain answers (UResult.CertainTuples): by label for a tuple with a
//     descriptor-free row, by Lemma 4.3 on the tuple-level normalized
//     rows of the others,
//   - the probabilistic extension sketched in Section 7 (confidence
//     computation: one exact evaluator with a step budget, Monte-Carlo
//     past it, one-pass bounds).
//
// Paper-section map: urelation.go — Section 2 (representation);
// translate.go — Section 3/Figure 4 (query translation); existence.go —
// when reading fewer partitions is exact; reduce.go —
// Proposition 3.3 (reduction); normalize.go — Section 4/Algorithm 1;
// certain.go — Lemma 4.3 over co-occurring (variable, tuple) pairs, and
// the certain-answer entry point; worldops.go — possible-worlds ground truth;
// prob.go — Section 7 (confidences: the exact evaluator, the sampler,
// bounds, and the dispatcher that serves them under a deadline).
package core
