package urel_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// flag.String("name", …), fs.Var(&v, "name", …)
	flagDefRE = regexp.MustCompile(`\b(?:flag|fs)\.(?:Bool|Duration|Float64|Int|Int64|String|Var)\((?:\w+, )?"([^"]+)"`)
	// `go run ./cmd/urgen …`, `urserved …`, `/tmp/urserved …`: a tool
	// name followed by its arguments up to the end of the line.
	toolCallRE = regexp.MustCompile(`\b(urbench|urgen|urquery|urserved)[ \t]+([^\n]*)`)
	flagUseRE  = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	quotedRE   = regexp.MustCompile(`"[^"\n]*"|'[^'\n]*'`)
)

// TestDocsNameOnlyExistingFlags checks every `<tool> -flag` the docs,
// the verify skill and CI spell out against the flags cmd/<tool>/main.go
// defines, so a flag cannot be deleted (or renamed) under a document
// that still tells an operator to pass it.
func TestDocsNameOnlyExistingFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, tool := range []string{"urbench", "urgen", "urquery", "urserved"} {
		src, err := os.ReadFile(filepath.Join("cmd", tool, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined[tool] = map[string]bool{}
		for _, m := range flagDefRE.FindAllStringSubmatch(string(src), -1) {
			defined[tool][m[1]] = true
		}
		if len(defined[tool]) == 0 {
			t.Fatalf("no flag definitions found in cmd/%s/main.go", tool)
		}
	}

	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")
	checked := map[string]int{}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// Join shell continuation lines; quoted arguments (SQL, JSON)
		// are not flags.
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		text = quotedRE.ReplaceAllString(text, "Q")
		for _, call := range toolCallRE.FindAllStringSubmatch(text, -1) {
			tool := call[1]
			for _, tok := range strings.Fields(call[2]) {
				if m := flagUseRE.FindStringSubmatch(tok); m != nil {
					checked[tool]++
					if !defined[tool][m[1]] {
						t.Errorf("%s: `%s -%s`: cmd/%s/main.go defines no flag -%s", file, tool, m[1], tool, m[1])
					}
				}
				// The command ends at a shell operator, a subshell, a
				// comment, or the end of an inline code span.
				if strings.ContainsAny(tok, "`|&;#>()") {
					break
				}
			}
		}
	}
	for tool := range defined {
		if checked[tool] == 0 {
			t.Errorf("no `%s -flag` invocation found in any document: the scanner no longer matches how they are written", tool)
		}
	}
}
