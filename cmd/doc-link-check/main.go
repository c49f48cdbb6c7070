// Command doc-link-check verifies the relative links in the repository's
// markdown documentation: every [text](target) whose target is a local
// path must point at a file or directory that exists (anchors are
// stripped; absolute URLs and mailto: links are skipped). Every
// `go run ./<path>` command must name a directory that exists, and every
// flag it passes — on its line or on the lines a trailing backslash
// continues it onto — must be one the program there declares. Commands
// run from the module root, so their paths resolve against the directory
// the tool runs in, not the document's. It exits non-zero listing each
// broken link and command — `make doc-check` runs it over the top-level
// documents and the verify skill, so a renamed or deleted program or flag
// cannot silently orphan the docs that reference it.
//
//	doc-link-check README.md ARCHITECTURE.md DESIGN.md .claude/skills/verify/SKILL.md
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline markdown links: [text](target). Reference-style
// links and autolinks are not used in this repository's docs.
var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// cmdEnd are the characters a command on a line ends at: its inline
// code's closing backtick, a shell comment or operator, a parenthesis.
const cmdEnd = "`#&|;>()"

// runRE matches a `go run` of a local package path and the rest of its
// command on the line: go run ./cmd/amuse-run -stars 200.
var runRE = regexp.MustCompile(`go run (\./[\w./-]*)([^` + cmdEnd + `]*)`)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doc-link-check FILE.md ...")
		os.Exit(2)
	}
	if broken := check(".", os.Args[1:], os.Stderr); broken > 0 {
		fmt.Fprintf(os.Stderr, "doc-link-check: %d broken link(s) or command(s)\n", broken)
		os.Exit(1)
	}
}

// check reports each broken link and command of docs to w and returns how
// many there are. root is the module root the commands run from.
func check(root string, docs []string, w io.Writer) int {
	broken := 0
	flags := map[string]map[string]bool{} // a program directory's declared flags
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintf(w, "doc-link-check: %v\n", err)
			broken++
			continue
		}
		dir := filepath.Dir(doc)
		lines := strings.Split(string(text), "\n")
		for lineNo, line := range lines {
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
					fmt.Fprintf(w, "%s:%d: broken link %q\n", doc, lineNo+1, target)
					broken++
				}
			}
			for _, m := range runRE.FindAllStringSubmatch(line, -1) {
				prog := filepath.Join(root, m[1])
				if fi, err := os.Stat(prog); err != nil || !fi.IsDir() {
					fmt.Fprintf(w, "%s:%d: go run of a missing directory %q\n", doc, lineNo+1, m[1])
					broken++
					continue
				}
				if flags[prog] == nil {
					flags[prog] = declaredFlags(prog)
				}
				for _, f := range passedFlags(m[2], lines[lineNo+1:]) {
					if !flags[prog][f] {
						fmt.Fprintf(w, "%s:%d: go run %s passes -%s, which it does not declare\n", doc, lineNo+1, m[1], f)
						broken++
					}
				}
			}
		}
	}
	return broken
}

// passedFlags returns the names of the flags a command passes: rest is
// the line after its package path, and next the document's lines after
// it, which a trailing backslash continues the command onto.
func passedFlags(rest string, next []string) []string {
	var names []string
	for {
		if i := strings.IndexAny(rest, cmdEnd); i >= 0 {
			rest = rest[:i]
		}
		rest = strings.TrimSpace(rest)
		for _, tok := range strings.Fields(strings.TrimSuffix(rest, `\`)) {
			if name := strings.TrimLeft(tok, "-"); name != tok && name != "" {
				names = append(names, strings.SplitN(name, "=", 2)[0])
			}
		}
		if !strings.HasSuffix(rest, `\`) || len(next) == 0 {
			return names
		}
		rest, next = next[0], next[1:]
	}
}

// flagRE matches a flag's declaration: flag.String("name", …), or
// fs.Duration("name", …) on a FlagSet, for each of the value kinds.
var flagRE = regexp.MustCompile(`\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\("([^"]+)"`)

// declaredFlags returns the flags the non-test Go files in dir declare.
func declaredFlags(dir string) map[string]bool {
	declared := map[string]bool{}
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, name := range files {
		if src, err := os.ReadFile(name); err == nil && !strings.HasSuffix(name, "_test.go") {
			for _, m := range flagRE.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		}
	}
	return declared
}

// skipTarget reports whether a link target is outside this checker's
// scope: absolute URLs, mail links, and absolute filesystem paths.
func skipTarget(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "/")
}
