package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	fixtureOnce sync.Once
	fixture     *checker
	fixtureLoad strings.Builder
)

// checkFixture reports testdata/mod, type-checked once with testdata/caller
// as a caller-only module, against the given allowlist.
func checkFixture(t *testing.T, allowlist string) (string, int) {
	t.Helper()
	fixtureOnce.Do(func() { fixture = load(&fixtureLoad, "testdata/mod", "../caller") })
	if fixtureLoad.Len() > 0 {
		t.Fatalf("loading the fixture: %s", fixtureLoad.String())
	}
	path := filepath.Join(t.TempDir(), "unused.allowlist")
	if err := os.WriteFile(path, []byte(allowlist), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code := fixture.report(&out, path)
	return strings.ReplaceAll(out.String(), path, "unused.allowlist"), code
}

// seam lists the fixture's test-written field, so every case below sees it
// covered.
const seam = "# the fixture's test seam\nfixture/a.Config.Seam written by the test only\n"

// TestFixtureFindings pins one finding per rule, sorted: an unused
// function, a function only its own package's tests reference, a function
// that references only itself, a method no interface declares, and a field
// only a test writes. Live: main and init, the root package's API, a
// function another directory's test references, one the caller module
// references, methods through a module interface, fmt.Stringer and
// json.Marshaler, a field written through an index chain and one a JSON
// decode writes.
func TestFixtureFindings(t *testing.T) {
	out, code := checkFixture(t, seam)
	want := `a/a.go:49: field fixture/a.Config.TestOnly
a/a.go:10: func fixture/a.OwnTestOnly
a/a.go:19: func fixture/a.Recursive
a/a.go:7: func fixture/a.Unused
a/a.go:36: method fixture/a.Square.Perimeter
`
	if out != want || code != 1 {
		t.Fatalf("exit %d, output:\n%s\nwant exit 1, output:\n%s", code, out, want)
	}
}

// TestAllowlistCovers: findings listed by name, or by their package, pass.
func TestAllowlistCovers(t *testing.T) {
	for name, list := range map[string]string{
		"names":   "fixture/a.Config.TestOnly r\nfixture/a.OwnTestOnly r\nfixture/a.Recursive r\nfixture/a.Unused r\nfixture/a.Square.Perimeter r\n",
		"package": "fixture/a every finding of the package\n",
	} {
		if out, code := checkFixture(t, seam+list); out != "" || code != 0 {
			t.Errorf("%s: exit %d, output:\n%s", name, code, out)
		}
	}
}

// TestStaleEntryFails: an entry that covers no finding fails the gate, as
// does an entry without a reason.
func TestStaleEntryFails(t *testing.T) {
	out, code := checkFixture(t, seam+"fixture/a r\nfixture/a.Gone it was deleted\n")
	if want := "unused.allowlist: stale entry fixture/a.Gone: it covers no finding\n"; out != want || code != 1 {
		t.Errorf("exit %d, output:\n%s\nwant exit 1, output:\n%s", code, out, want)
	}
	out, code = checkFixture(t, seam+"fixture/a\n")
	if want := "unused: unused.allowlist: entry fixture/a gives no reason\n"; out != want || code != 1 {
		t.Errorf("exit %d, output:\n%s\nwant exit 1, output:\n%s", code, out, want)
	}
}
