package main

import (
	"strings"
	"testing"
)

// TestHeaderNamesWhatRuns: the header names a Figure 3 rung only when the
// run enforces exactly that rung's contexts; any other mask is named by
// its policy, so a ct,ai run never claims control flow.
func TestHeaderNamesWhatRuns(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		header string
	}{
		{nil, "bastion-run: nginx under CET+CT+CF+AI+SF"},
		{[]string{"-contexts", "all"}, "bastion-run: nginx under CET+CT+CF+AI+SF"},
		{[]string{"-unprotected"}, "bastion-run: nginx under vanilla"},
		{[]string{"-contexts", "ct"}, "bastion-run: nginx under CET+CT"},
		{[]string{"-contexts", "cf,ct"}, "bastion-run: nginx under CET+CT+CF"},
		{[]string{"-contexts", "ct,ai", "-extend-fs", "-offload"},
			"bastion-run: nginx under CET, contexts call-type+argument-integrity, extend-fs yes, tree filter no, offload yes"},
		{[]string{"-contexts", "sf"},
			"bastion-run: nginx under CET, contexts syscall-flow, extend-fs no, tree filter no, offload no"},
	} {
		var out strings.Builder
		if err := run(append([]string{"-app", "nginx", "-units", "2"}, tc.args...), &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got, _, _ := strings.Cut(out.String(), "\n"); got != tc.header {
			t.Errorf("%v: header %q, want %q", tc.args, got, tc.header)
		}
	}
}

// TestRejectsEmptyContexts: a context list that enables nothing is a
// usage error, not an unprotected run.
func TestRejectsEmptyContexts(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-contexts", ","}, &out); err != errUsage {
		t.Fatalf("run(-contexts ,) = %v, want a usage error", err)
	}
}
