package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// selfCheck measures the benchmark against its own bounds: two
// interleaved sets (A, B, A, B, ...) of n runs of each workload on the
// same build, run i of either set with seed+i. For every workload and
// end-to-end metric it prints both set medians, their relative
// difference, the spread of each set (interquartile range over median,
// what the driver computes) and the bound. It returns non-zero when a
// difference or a spread exceeds its bound: a bound the benchmark
// cannot keep on identical code would call noise a regression.
func selfCheck(e *env, names []string, seconds float64, n int, out io.Writer) int {
	base := e.seed
	vals := map[string][2][]float64{} // "workload metric" -> set -> values
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, name := range names {
				e.seed = base + int64(i)
				rec, err := runWorkload(e, newWorkload(name), seconds)
				if err != nil {
					fmt.Fprintf(out, "selfcheck: %v\n", err)
					return 1
				}
				if rec.Failed > 0 {
					fmt.Fprintf(out, "selfcheck: %s seed %d: %d failed ops, first: %s\n", name, e.seed, rec.Failed, rec.FirstFail)
					return 1
				}
				for _, m := range endToEnd {
					k := name + " " + m.name
					v := vals[k]
					v[set] = append(v[set], rec.Metrics[m.name].Value)
					vals[k] = v
				}
				e.logf("selfcheck: run %d/%d set %c %s done\n", i+1, n, 'A'+set, name)
			}
		}
	}
	fmt.Fprintf(out, "| workload | metric | median A | median B | diff | spread A | spread B | bound | diff/bound |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|\n")
	code := 0
	for _, name := range names {
		for _, m := range endToEnd {
			v := vals[name+" "+m.name]
			a, b := median(v[0]), median(v[1])
			diff := math.Abs(b-a) / a
			sa, sb := spread(v[0]), spread(v[1])
			mark := ""
			if diff > m.bound || sa > m.bound || sb > m.bound {
				mark, code = " **over**", 1
			}
			fmt.Fprintf(out, "| %s | %s | %.4g | %.4g | %.2f%% | %.2f%% | %.2f%% | %.1f%% | %.2f%s |\n",
				name, m.name, a, b, 100*diff, 100*sa, 100*sb, 100*m.bound, diff/m.bound, mark)
		}
	}
	return code
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (q(0.75) - q(0.25)) / median(xs)
}
