package urel_test

import (
	"go/ast"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// familyRE matches a metric family name as the code registers it: every
// string literal of a non-test file that is a whole urel_ name.
var familyRE = regexp.MustCompile(`^urel_[a-z0-9_]*[a-z0-9]$`)

// TestEveryMetricFamilyHasARunbookRow checks that each metric family the
// module registers is named in full on a row of OPERATIONS.md's
// "Runbook: metric families" table, so an operator who scrapes a family
// can look up what it means and what to do when it misbehaves. A family
// nobody can explain there is deleted, not exported.
func TestEveryMetricFamilyHasARunbookRow(t *testing.T) {
	_, files := moduleSources(t)
	families := map[string]bool{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && familyRE.MatchString(s) {
					families[s] = true
				}
			}
			return true
		})
	}
	if len(families) == 0 {
		t.Fatal("found no urel_ metric family in the module")
	}
	raw, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "### Runbook: metric families")
	if start < 0 {
		t.Fatal(`OPERATIONS.md has no "Runbook: metric families" section`)
	}
	section := doc[start+3:]
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	var rows strings.Builder
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			rows.WriteString(line + "\n")
		}
	}
	for name := range families {
		if !regexp.MustCompile(`\b` + name + `\b`).MatchString(rows.String()) {
			t.Errorf("metric family %s has no row in OPERATIONS.md's runbook table", name)
		}
	}
}
