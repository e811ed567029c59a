package engine

import (
	"fmt"
	"strings"
)

// Explain renders a logical plan in a PostgreSQL-inspired tree format
// with cardinality estimates, so translated U-relation plans can be
// inspected the way the paper inspects Figure 13. If optimize is true
// the plan is optimized first (like EXPLAIN of the chosen plan).
func Explain(p Plan, cat *Catalog, optimize bool) (string, error) {
	if optimize {
		var err error
		p, err = Optimize(p, cat)
		if err != nil {
			return "", err
		}
	}
	adviseFilters(p)
	var b strings.Builder
	explainNode(&b, p, newEstimator(cat), 0, true)
	return b.String(), nil
}

// explainNode prints p and its subtree; the one estimator of the Explain
// call supplies every node's rows= figure, each computed once.
func explainNode(b *strings.Builder, p Plan, est *estimator, depth int, root bool) {
	indent := strings.Repeat("  ", depth)
	head := indent
	if !root {
		head = indent + "->  "
	}
	st := est.stats(p)
	switch n := p.(type) {
	case *JoinPlan:
		// The key and residual Build splits the condition into. (A join
		// whose input schemas do not resolve prints neither; Build
		// reports the error.)
		pairs, residual, _ := n.split(est.cat)
		fmt.Fprintf(b, "%s%s  (rows=%.0f)\n", head, n.Label(), st.Rows)
		if len(pairs) > 0 {
			conds := make([]string, len(pairs))
			for i, pr := range pairs {
				conds[i] = fmt.Sprintf("(%s = %s)", pr.L, pr.R)
			}
			fmt.Fprintf(b, "%s      Hash Cond: %s\n", indent, strings.Join(conds, " AND "))
		}
		if residual != nil {
			fmt.Fprintf(b, "%s      Join Filter: %s\n", indent, residual)
		}
		if n.Out != nil {
			fmt.Fprintf(b, "%s      Output: %s\n", indent, strings.Join(n.Out, ", "))
		}
		explainNode(b, n.L, est, depth+1, false)
		explainNode(b, n.R, est, depth+1, false)
	case *StitchPlan:
		fmt.Fprintf(b, "%s%s  (rows=%.0f)\n", head, n.Label(), st.Rows)
		conds := make([]string, len(n.TIDs)-1)
		for i, t := range n.TIDs[1:] {
			conds[i] = fmt.Sprintf("(%s = %s)", n.TIDs[0], t)
		}
		fmt.Fprintf(b, "%s      Merge Cond: %s\n", indent, strings.Join(conds, " AND "))
		if n.Cond != nil {
			fmt.Fprintf(b, "%s      Join Filter: %s\n", indent, n.Cond)
		}
		if n.Out != nil {
			fmt.Fprintf(b, "%s      Output: %s\n", indent, strings.Join(n.Out, ", "))
		}
		for _, c := range n.Inputs {
			explainNode(b, c, est, depth+1, false)
		}
	case *FilterPlan:
		// Fuse Filter into the node beneath, PostgreSQL-style, when the
		// child is a scan.
		switch c := n.Child.(type) {
		case *ScanPlan, *ValuesPlan:
			fmt.Fprintf(b, "%s%s  (rows=%.0f)\n", head, c.Label(), st.Rows)
			fmt.Fprintf(b, "%s      Filter: %s\n", indent, n.Cond)
		default:
			fmt.Fprintf(b, "%sFilter  (rows=%.0f)\n", head, st.Rows)
			fmt.Fprintf(b, "%s      Cond: %s\n", indent, n.Cond)
			explainNode(b, n.Child, est, depth+1, false)
		}
	case *ProjectPlan:
		fmt.Fprintf(b, "%sProject %s  (rows=%.0f)\n", head, strings.Join(n.Names, ", "), st.Rows)
		explainNode(b, n.Child, est, depth+1, false)
	case *DistinctPlan:
		fmt.Fprintf(b, "%sHashAggregate (distinct)  (rows=%.0f)\n", head, st.Rows)
		explainNode(b, n.Child, est, depth+1, false)
	default:
		fmt.Fprintf(b, "%s%s  (rows=%.0f)\n", head, p.Label(), st.Rows)
		for _, c := range p.Children() {
			explainNode(b, c, est, depth+1, false)
		}
	}
}
