package vm

import (
	"os/exec"
	"strings"
	"testing"
)

// TestWordAccessorsInline keeps exec's straight-line arms call-free: the
// compiler must inline the word cache's two accessors and the linked slot
// table read into this package, whose only caller of them is exec. If one
// stops inlining (WriteUintCached sits at the budget), every instruction
// pays for the spills a call forces, with no test failing otherwise.
func TestWordAccessorsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{
		"mem.(*Space).ReadUintCached",
		"mem.(*Space).WriteUintCached",
		"ir.(*Function).LinkedSlotDisp",
	} {
		if !strings.Contains(string(out), "inlining call to "+fn+"\n") {
			t.Errorf("the compiler does not inline %s into exec", fn)
		}
	}
}
