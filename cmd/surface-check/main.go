// Command surface-check prints the surface ledger's census: the exported
// functions and methods declared in non-test files under internal/ that no
// non-test file uses (cmd/, examples/, internal/, the bench/ module, the
// root bench_test.go), one "dir Name" line each, sorted. Uses are resolved
// by go/types, so a name two packages share covers neither; a method whose
// type implements an interface that has it is used. internal/wiretest is
// exempt. make surface-check holds the census to SURFACE_KEEP.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// dynamic holds the interfaces errors.Is and errors.As assert inside their
// bodies, which export data does not carry.
const dynamic = `package p; type (u interface{ Unwrap() error }; w interface{ Unwrap() []error }
i interface{ Is(error) bool }; a interface{ As(any) bool })`

// used holds the FullName of every function a non-test file uses.
var fset, used = token.NewFileSet(), map[string]bool{}

func main() {
	for _, line := range census(".") {
		fmt.Println(line)
	}
}

// census returns the ledger's lines for the module at root, whose bench/
// directory holds the benchmark module.
func census(root string) []string {
	clear(used)
	args := []string{"./..."} // and bench_test.go's imports: it joins the root package
	f, err := parser.ParseFile(fset, filepath.Join(root, "bench_test.go"), nil, parser.ImportsOnly)
	must(err)
	for _, im := range f.Imports {
		args = append(args, strings.Trim(im.Path.Value, `"`))
	}
	exports, imp := load(root, args...)
	load(filepath.Join(root, "bench"), "./...")
	f, err = parser.ParseFile(fset, "dynamic.go", dynamic, 0)
	must(err)
	dp, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	must(err)
	scopes, decls := []*types.Scope{types.Universe, dp.Scope()}, []*types.Package{}
	for path := range exports {
		tp, err := imp.Import(path)
		must(err)
		if scopes = append(scopes, tp.Scope()); strings.HasPrefix(path, "jungle/internal/") && path != "jungle/internal/wiretest" {
			decls = append(decls, tp)
		}
	}
	var ifaces []*types.Interface // every method-set interface in sight
	for _, s := range scopes {
		for _, name := range s.Names() {
			if it, ok := s.Lookup(name).Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
	}

	var lines []string
	for _, tp := range decls {
		var funcs []*types.Func
		for _, name := range tp.Scope().Names() {
			switch o := tp.Scope().Lookup(name).(type) {
			case *types.Func:
				funcs = append(funcs, o)
			case *types.TypeName:
				if n, ok := o.Type().(*types.Named); ok {
					funcs = slices.AppendSeq(funcs, n.Methods())
				}
			}
		}
		for _, fn := range funcs {
			if fn.Exported() && !used[fn.FullName()] && !viaInterface(fn, ifaces) {
				name := strings.NewReplacer("(", "", ")", "", "*", "", tp.Path()+".", "").Replace(fn.FullName())
				lines = append(lines, strings.TrimPrefix(tp.Path(), "jungle/")+" "+name)
			}
		}
	}
	slices.Sort(lines)
	return lines
}

// load lists the packages args name in the module at dir and their
// dependencies, and returns their export data files with an importer
// over them. It type-checks the non-test files of the module's own
// packages (the root package's with bench_test.go) and marks every
// function they use.
func load(dir string, args ...string) (map[string]string, types.Importer) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f",
		"{{.ImportPath}}\t{{.Export}}\t{{.Dir}}\t{{with .Module}}{{.Main}}{{end}}\t{{join .GoFiles \"\\t\"}}"}, args...)...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	must(err)
	var own [][]string
	exports := map[string]string{}
	for line := range strings.Lines(string(out)) {
		// path, export file, directory, main module?, files...
		p := strings.Split(strings.TrimSuffix(line, "\n"), "\t")
		exports[p[0]] = p[1]
		if p[0] == "jungle" {
			p = append(p, "bench_test.go")
		}
		if p[3] == "true" {
			own = append(own, p)
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	for _, p := range own {
		var files []*ast.File
		for _, name := range p[4:] {
			f, err := parser.ParseFile(fset, p[2]+"/"+name, nil, 0)
			must(err)
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		_, err := (&types.Config{Importer: imp}).Check(p[0], fset, files, info)
		must(err)
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin().FullName()] = true
			}
		}
	}
	return exports, imp
}

// viaInterface reports whether fn is a method of a type T where *T, whose
// method set holds T's, implements one of ifaces that has fn's name.
func viaInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	return recv != nil && slices.ContainsFunc(ifaces, func(it *types.Interface) bool {
		ptr := recv.Type()
		if _, ok := ptr.(*types.Pointer); !ok {
			ptr = types.NewPointer(ptr)
		}
		return types.NewMethodSet(it).Lookup(nil, fn.Name()) != nil && types.Implements(ptr, it)
	})
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "surface-check:", err)
		os.Exit(2)
	}
}
