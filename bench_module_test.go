package iolap

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModule keeps the repository's benchmark inside tier-1. bench/ is
// a nested module (its go.mod replaces iolap => ../), so `go build ./... &&
// go test ./...` at the root neither compiles it nor runs its smoke test: an
// internal/ signature the probes call could change and break the benchmark
// silently. This test vets and tests the nested module against the working
// tree. Skipped under -short and where no go tool is on PATH.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bench module (~10 s)")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "./..."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd bench && go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
