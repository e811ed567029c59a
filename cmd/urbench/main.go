// Command urbench regenerates the tables and figures of the paper's
// evaluation section on the Go substrate. It reproduces the paper; it
// does not gate performance (that is `go run -C benchmark .`).
//
// Usage:
//
//	urbench -figure 9            # Figure 9 world-count/size table
//	urbench -figure 10           # merge-aware plan for Q1
//	urbench -figure 11           # answer sizes
//	urbench -figure 12           # query evaluation times
//	urbench -figure 13           # optimized plan for Q2
//	urbench -figure 14           # attr vs tuple-level vs ULDB
//	urbench -figure 6            # succinctness separations (Figs 6/7)
//	urbench -figure all          # everything
//	urbench -grid paper|quick|smoke  # sweep size (default quick)
//	urbench -seed 7              # generator seed for every dataset
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"urel/internal/bench"
)

// figures lists what -figure accepts, in the order -figure all prints
// them. paper is true under -grid paper, for the figures whose sweep is
// not taken from the grid.
var figures = []struct {
	name string
	run  func(g bench.Grid, paper bool) error
}{
	{"9", func(g bench.Grid, _ bool) error {
		_, err := bench.Figure9(g, os.Stdout)
		return err
	}},
	{"10", func(bench.Grid, bool) error {
		_, err := bench.Figure10(0.01, 0.01, 0.25, os.Stdout)
		return err
	}},
	{"11", func(g bench.Grid, _ bool) error {
		_, err := bench.Figure11(g.Scales[len(g.Scales)-1], g, os.Stdout)
		return err
	}},
	{"12", func(g bench.Grid, _ bool) error {
		_, err := bench.Figure12(g, os.Stdout)
		return err
	}},
	{"13", func(bench.Grid, bool) error {
		_, err := bench.Figure13(0.1, 0.1, 0.1, os.Stdout)
		return err
	}},
	{"14", func(_ bench.Grid, paper bool) error {
		scales := []float64{0.01, 0.02, 0.05}
		if paper {
			scales = []float64{0.01, 0.05, 0.1}
		}
		_, err := bench.Figure14(scales, []float64{0.001, 0.01}, 0.1, os.Stdout)
		return err
	}},
	{"6", func(bench.Grid, bool) error {
		_, err := bench.Succinctness([]int{2, 4, 6, 8, 10, 12, 14, 16}, os.Stdout)
		return err
	}},
}

// figureNames is every value -figure accepts.
func figureNames() []string {
	names := []string{"all"}
	for _, f := range figures {
		names = append(names, f.name)
	}
	return names
}

// checkFigure rejects a -figure value that names no figure, so a typo
// fails instead of printing nothing.
func checkFigure(name string) error {
	if slices.Contains(figureNames(), name) {
		return nil
	}
	return fmt.Errorf("unknown figure %q (valid: %s)", name, strings.Join(figureNames(), ", "))
}

func main() {
	figure := flag.String("figure", "all", "figure to regenerate: "+strings.Join(figureNames(), ", "))
	gridName := flag.String("grid", "quick", "parameter sweep: quick, paper, or smoke")
	seed := flag.Int64("seed", 0, "generator seed for every dataset of the sweep (0 = tpch default)")
	flag.Parse()

	if err := checkFigure(*figure); err != nil {
		fmt.Fprintln(os.Stderr, "urbench:", err)
		os.Exit(2)
	}
	grid := bench.QuickGrid()
	switch *gridName {
	case "paper":
		grid = bench.PaperGrid()
	case "smoke":
		grid = bench.SmokeGrid()
	}
	grid.Seed = *seed

	for _, f := range figures {
		if *figure != "all" && *figure != f.name {
			continue
		}
		if err := f.run(grid, *gridName == "paper"); err != nil {
			fmt.Fprintf(os.Stderr, "urbench: figure %s: %v\n", f.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
