// Command doc-link-check verifies the relative links in the repository's
// markdown documentation: every [text](target) whose target is a local
// path must point at a file or directory that exists (anchors are
// stripped; absolute URLs and mailto: links are skipped). Every
// `go run ./<path>` command must name a directory that exists; commands
// run from the module root, so their paths resolve against the directory
// the tool runs in, not the document's. It exits non-zero listing each
// broken link and command — `make doc-check` runs it over the top-level
// documents and the verify skill, so a renamed or deleted program cannot
// silently orphan the docs that reference it.
//
//	doc-link-check README.md ARCHITECTURE.md DESIGN.md .claude/skills/verify/SKILL.md
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline markdown links: [text](target). Reference-style
// links and autolinks are not used in this repository's docs.
var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// runRE matches a `go run` of a local package path: go run ./cmd/amuse-run.
var runRE = regexp.MustCompile(`go run (\./[\w./-]*)`)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doc-link-check FILE.md ...")
		os.Exit(2)
	}
	broken := 0
	for _, doc := range os.Args[1:] {
		text, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doc-link-check: %v\n", err)
			broken++
			continue
		}
		dir := filepath.Dir(doc)
		for lineNo, line := range strings.Split(string(text), "\n") {
			for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if skipTarget(target) {
					continue
				}
				// Strip an anchor; a bare "#anchor" link stays in-file.
				path := target
				if i := strings.IndexByte(path, '#'); i >= 0 {
					path = path[:i]
				}
				if path == "" {
					continue
				}
				if _, err := os.Stat(filepath.Join(dir, path)); err != nil {
					fmt.Fprintf(os.Stderr, "%s:%d: broken link %q\n", doc, lineNo+1, target)
					broken++
				}
			}
			for _, m := range runRE.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
					fmt.Fprintf(os.Stderr, "%s:%d: go run of a missing directory %q\n", doc, lineNo+1, m[1])
					broken++
				}
			}
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "doc-link-check: %d broken link(s) or command(s)\n", broken)
		os.Exit(1)
	}
}

// skipTarget reports whether a link target is outside this checker's
// scope: absolute URLs, mail links, and absolute filesystem paths.
func skipTarget(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "/")
}
