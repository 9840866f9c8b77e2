package djstar

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestREADMEArchitectureMapMatchesPackages keeps README's architecture map
// true: every directory under internal/ with non-test Go files has an
// entry in the map's code block, and every entry names a directory that
// exists.
func TestREADMEArchitectureMapMatchesPackages(t *testing.T) {
	entries := readmeInternalEntries(t)
	if len(entries) == 0 {
		t.Fatal("README has no internal/ entries under ## Architecture")
	}

	packages := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			packages[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range packages {
		if !entries[strings.TrimPrefix(pkg, "internal/")] {
			t.Errorf("package %s is missing from README's architecture map", pkg)
		}
	}
	for e := range entries {
		if fi, err := os.Stat(filepath.Join("internal", e)); err != nil || !fi.IsDir() {
			t.Errorf("README's architecture map lists internal/%s, which is not a directory", e)
		}
	}
}

// readmeInternalEntries returns the package names of the map's internal/
// block: the lines indented by exactly two spaces (continuations are
// indented further).
func readmeInternalEntries(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries := map[string]bool{}
	var inSection, inBlock bool
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			inSection = line == "## Architecture"
		case inSection && strings.HasPrefix(line, "```"):
			if inBlock {
				return entries
			}
			inBlock = true
		case inBlock && strings.HasPrefix(line, "  ") && len(line) > 2 && line[2] != ' ':
			entries[strings.Fields(line)[0]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}
