package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheck runs the checker over a scratch document that still names the
// ensemble path amuse-run no longer has, with the repository as the
// commands' root: a broken link, a go run of a missing directory, and
// each undeclared flag — on its own line, on a backslash continuation and
// inside inline code — is reported once, at the line its command starts
// on; what exists passes.
func TestCheck(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.md")
	text := strings.Join([]string{
		"[present](present.md), [absent](absent.md#top), [web](https://example.org), [here](#anchor)",
		"go run ./cmd/amuse-run -placement jungle -stars 200 \\",
		"    -gas 2000 -iters=2   # a comment -not-a-flag",
		"go run ./cmd/amuse-run -sweep 8 -sweep-steps 12",
		"`go run ./cmd/jungle-bench -e e7` (fast; `-e e1 -scale 0.1` slower), `go run ./cmd/jungle-bench --bogus`",
		"go run ./cmd/amuse-run -testbed sc11 \\",
		"    -sweep-slots 8",
		"go run ./cmd/gone -x",
		"go run ./examples/quickstart",
	}, "\n")
	for name, body := range map[string]string{doc: text, filepath.Join(dir, "present.md"): ""} {
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	n := check("../..", []string{doc}, &out)
	want := strings.Join([]string{
		doc + `:1: broken link "absent.md#top"`,
		doc + ":4: go run ./cmd/amuse-run passes -sweep, which it does not declare",
		doc + ":4: go run ./cmd/amuse-run passes -sweep-steps, which it does not declare",
		doc + ":5: go run ./cmd/jungle-bench passes -bogus, which it does not declare",
		doc + ":6: go run ./cmd/amuse-run passes -sweep-slots, which it does not declare",
		doc + `:8: go run of a missing directory "./cmd/gone"`,
	}, "\n") + "\n"
	if got := out.String(); got != want || n != 6 {
		t.Fatalf("check reported %d:\n%s\nwant 6:\n%s", n, got, want)
	}
}
