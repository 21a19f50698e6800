package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// TestWordAccessorsInline keeps the interpreter's word accesses
// call-free on a cache hit: the compiler must inline the word cache's
// accessors and the linked slot-table read into exec's straight-line
// arms, the frame-link, return-address and argument stores into
// pushCall, and the two frame reads into doRet. If one stops inlining
// (WriteUintCached sits at the budget, and a function the compiler finds
// too big inlines only tiny callees), every instruction or call pays for
// the spills a call forces, with no test failing otherwise.
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
	// Each inlining site, by the line of vm.go it is on.
	inlined := map[string][]int{}
	for _, m := range regexp.MustCompile(`(?m)^(?:\S*/)?vm\.go:(\d+):\d+: inlining call to (\S+)$`).FindAllSubmatch(out, -1) {
		line, _ := strconv.Atoi(string(m[1]))
		inlined[string(m[2])] = append(inlined[string(m[2])], line)
	}
	funcs := methodLines(t, "vm.go")
	for _, want := range []struct{ caller, callee string }{
		{"exec", "mem.(*Space).ReadUintCached"},
		{"exec", "mem.(*Space).WriteUintCached"},
		{"exec", "ir.(*Function).LinkedSlotDisp"},
		{"pushCall", "mem.(*Space).WriteUintCached"},
		{"doRet", "mem.(*Space).ReadUintCached"},
	} {
		span, ok := funcs[want.caller]
		if !ok {
			t.Fatalf("vm.go has no method %s", want.caller)
		}
		found := false
		for _, line := range inlined[want.callee] {
			found = found || span[0] <= line && line <= span[1]
		}
		if !found {
			t.Errorf("the compiler does not inline %s into %s", want.callee, want.caller)
		}
	}
}

// methodLines returns the first and last line of each method declared in
// file.
func methodLines(t *testing.T, file string) map[string][2]int {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string][2]int{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
			spans[fd.Name.Name] = [2]int{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
		}
	}
	return spans
}
