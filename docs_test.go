package iolap

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	citedMake   = regexp.MustCompile("`make\\s+([a-z0-9-]+)")
	citedGoRun  = regexp.MustCompile(`go run \./([A-Za-z0-9_/-]+)`)
	packageMain = regexp.MustCompile(`(?m)^package main$`)
)

// TestDocsCiteExistingTools: a `make <target>` in the docs must be in the
// Makefile's .PHONY list and a `go run ./<path>` must name a directory
// holding a main package, so a deleted tool cannot stay cited as the source
// of a number.
func TestDocsCiteExistingTools(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, f := range strings.Fields(rest) {
				targets[f] = true
			}
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citedMake.FindAllSubmatch(text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s cites `make %s`, which is not a .PHONY target of the Makefile", doc, m[1])
			}
		}
		for _, m := range citedGoRun.FindAllSubmatch(text, -1) {
			if !hasMainPackage(string(m[1])) {
				t.Errorf("%s cites `go run ./%s`, which is not a directory with a main package", doc, m[1])
			}
		}
	}
}

func hasMainPackage(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if src, err := os.ReadFile(f); err == nil && packageMain.Match(src) {
			return true
		}
	}
	return false
}
