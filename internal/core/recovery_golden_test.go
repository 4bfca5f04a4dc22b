package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

const recoveryGoldenPath = "testdata/recovery.golden"

// recoveryLines renders every batch of a run that recovered as "<key>
// <batch> <Recoveries> <RecoveredFrom>".
func recoveryLines(key string, us []*Update) string {
	var b strings.Builder
	for _, u := range us {
		if u.Recoveries > 0 {
			fmt.Fprintf(&b, "%s %d %d %d\n", key, u.Batch, u.Recoveries, u.RecoveredFrom)
		}
	}
	return b.String()
}

// TestRecoveryTargetsGolden pins which snapshot every recovery restores: for
// each lattice case that recovers, and for a spill fault in a range-tracking
// query (nestedFewReadSpill), the recovery count and RecoveredFrom of every
// batch that recovered. The lattice holds every cell to its reference cell's
// fields, and trajectory.golden digests answers only, so neither notices a
// recovery that lands on another snapshot in every cell and replays to the
// same answer.
func TestRecoveryTargetsGolden(t *testing.T) {
	var cases []latticeCase
	for _, r := range goldenRuns(t) {
		r.c.name = r.key
		cases = append(cases, r.c)
	}
	cases = append(cases, theorem1Cases(t)...)
	var got strings.Builder
	for _, c := range cases {
		got.WriteString(recoveryLines(c.name, runAt(t, c, execConfig{workers: 1}).us))
	}
	us, eng := midRunWriteFault(t, nestedFewReadSpill)
	defer eng.Close()
	got.WriteString(recoveryLines("spill_fault/"+nestedFewReadSpill.name, us))

	header := "# Recovery targets pinned by TestRecoveryTargetsGolden: <case> <batch> <Recoveries> <RecoveredFrom>, one line per batch that recovered.\n" +
		"# Regenerate only when recovery changes on purpose: go test ./internal/core -run TestRecoveryTargetsGolden -update\n"
	if *updateGolden {
		if err := os.WriteFile(recoveryGoldenPath, []byte(header+got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(recoveryGoldenPath)
	if err != nil {
		t.Fatalf("%v (run the test with -update at a commit whose behaviour is trusted)", err)
	}
	if string(want) != header+got.String() {
		t.Errorf("recovery targets differ from %s:\n%s", recoveryGoldenPath, got.String())
	}
}
