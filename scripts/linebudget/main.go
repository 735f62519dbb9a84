// Command linebudget holds every package of the module to a line budget.
// It counts the non-blank lines of each package's non-test Go files and
// compares them with scripts/linebudget.txt, failing when a package has
// more lines than its budget or when the file and the module disagree on
// which packages exist. A change that grows a package raises its line in
// the same diff; one that shrinks a package lowers it.
//
// Run it from the repository root: go run ./scripts/linebudget
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const budgetFile = "scripts/linebudget.txt"

func main() {
	counts, err := countLines(".")
	if err != nil {
		fail(err)
	}
	budget, err := readBudget(budgetFile)
	if err != nil {
		fail(err)
	}
	var problems []string
	for _, pkg := range sortedKeys(counts) {
		n := counts[pkg]
		limit, ok := budget[pkg]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: %d lines, no budget line (add \"%s %d\")", pkg, n, pkg, n))
		case n > limit:
			problems = append(problems, fmt.Sprintf("%s: %d lines, budget %d (+%d)", pkg, n, limit, n-limit))
		}
	}
	for _, pkg := range sortedKeys(budget) {
		if _, ok := counts[pkg]; !ok {
			problems = append(problems, fmt.Sprintf("%s: budgeted but holds no non-test Go file", pkg))
		}
	}
	if len(problems) > 0 {
		fail(fmt.Errorf("%s:\n  %s", budgetFile, strings.Join(problems, "\n  ")))
	}
}

// countLines returns the non-blank line count of the non-test Go files
// under root, by package directory. It skips hidden directories, testdata
// and nested modules.
func countLines(root string) (map[string]int, error) {
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := 0
		for _, line := range bytes.Split(src, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				n++
			}
		}
		counts[filepath.ToSlash(filepath.Dir(path))] += n
		return nil
	})
	return counts, err
}

// readBudget parses "package lines" pairs, one a line; blank lines and
// lines starting with # are ignored.
func readBudget(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	budget := map[string]int{}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"package lines\", got %q", path, ln, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%s:%d: bad line count %q", path, ln, fields[1])
		}
		if _, dup := budget[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: package %s budgeted twice", path, ln, fields[0])
		}
		budget[fields[0]] = n
	}
	return budget, sc.Err()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "linebudget:", err)
	os.Exit(1)
}
