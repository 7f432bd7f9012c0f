package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunStandalone drives the suite the way cmd/tdhlint does, over a
// throwaway module that imports only the standard library: findings come
// out in line order, and a _test.go file is never analyzed.
func TestRunStandalone(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module probe\n\ngo 1.24\n",
		"probe.go": `package probe

//tdh:bogus
func Noted() {}

//tdh:hotpath
func Alloc(n int) []int { return make([]int, n) }
`,
		"probe_test.go": `package probe

//tdh:hotpath
func testAlloc(n int) []int { return make([]int, n) }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var out bytes.Buffer
	n, err := RunStandalone(dir, []string{"./..."}, Suite(), &out)
	if err != nil {
		t.Fatalf("RunStandalone: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	probe := filepath.Join(dir, "probe.go")
	want := []string{
		probe + ":3:1: tdhnote: unknown directive //tdh:bogus ",
		probe + ":7:34: hotpathalloc: make allocates in //tdh:hotpath function Alloc;",
	}
	if n != len(want) || len(lines) != len(want) {
		t.Fatalf("RunStandalone = %d, printed:\n%s\nwant %d findings", n, out.String(), len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("finding %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}
