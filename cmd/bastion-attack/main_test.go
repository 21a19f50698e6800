package main

import (
	"strings"
	"testing"

	"bastion/internal/attacks"
)

// TestRunOneShowsSyscallFlow runs the syscall-ordering replay, which only
// the SF context blocks: its single-scenario report must carry an SF row,
// and that row must show the block.
func TestRunOneShowsSyscallFlow(t *testing.T) {
	s, ok := attacks.ByID("ord-setuid-replay")
	if !ok {
		t.Fatal("scenario ord-setuid-replay missing from the catalog")
	}
	var out strings.Builder
	if err := runOne(&out, s, false); err != nil {
		t.Fatalf("runOne: %v", err)
	}
	rows := 0
	var sf string
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, "  ") {
			continue
		}
		rows++
		if fields[0] == "SF" {
			sf = line
		}
	}
	if rows != len(attacks.Defenses) {
		t.Errorf("%d defense rows, want one per attacks.Defenses entry (%d):\n%s", rows, len(attacks.Defenses), out.String())
	}
	if !strings.Contains(sf, "blocked by") {
		t.Fatalf("SF row = %q, want it to read \"blocked by\":\n%s", sf, out.String())
	}
}
