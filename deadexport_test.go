package gqosm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports is the allowlist of TestNoTestOnlyExports: exported
// funcs and methods under internal/ that no non-test file names, each
// with the reason it stays. Three kinds of entry belong here — methods
// that satisfy an interface (called through it, never by name), test
// seams the invariant oracle needs, and substrate features of the paper
// that only tests drive. Anything else the test lists is deleted.
var testOnlyExports = map[string]string{
	"clockx.timerHeap.Len":        "interface method: container/heap",
	"clockx.timerHeap.Less":       "interface method: container/heap",
	"sim.departureHeap.Len":       "interface method: container/heap",
	"sim.departureHeap.Less":      "interface method: container/heap",
	"core.wireError.Unwrap":       "interface method: errors.Is/As reach the taxonomy sentinel through it",
	"clockx.Manual.PendingTimers": "oracle seam: timer-leak checks (a stopped monitor, a closed broker or job manager leaves no timer armed)",
	"core.Broker.SetDebugHook":    "oracle seam: runs invariant.CheckAll after every mutating operation in tests and fuzzing",
	"core.Broker.DebugViolations": "oracle seam: the invariant events the debug hook recorded",
	"invariant.Check":             "oracle seam: the broker-level rules in SetDebugHook's signature, for a serial driver without a pool",
	"dsrt.Scheduler.ReportUsage":  "substrate: DSRT adapts a contract to measured usage (paper 2.1); the broker never reports usage",
	"gram.Manager.Fail":           "substrate: GRAM job failure; the broker only submits and cancels",
	"gram.Manager.Complete":       "substrate: GRAM job completion; the broker only submits and cancels",
	"registry.Registry.Renew":     "substrate: UDDIe lease renewal; services in the stack register once",
	"registry.Registry.Sweep":     "substrate: UDDIe lease expiry sweep; Find already hides expired leases",
	"gara.NewStorageManager":      "substrate: GARA's storage reservation-type; the stack reserves disk from the compute pool",
}

// TestNoTestOnlyExports lists every exported func or method declared in
// a non-test file under internal/ whose name no non-test file of the
// root module (examples/ included) or of bench/ ever mentions outside its
// own declaration. The match is by bare name — no type checking, stdlib
// go/parser only — so it under-reports (a shared name hides a dead
// method) and never over-reports.
func TestNoTestOnlyExports(t *testing.T) {
	declared := map[string]string{} // "pkg.Recv.Name" -> bare name
	used := map[string]bool{}
	eachNonTestFile(t, func(path string, file *ast.File) {
		internal := strings.HasPrefix(path, "internal/")
		// A declaration's own name is not a mention of it, and neither is an
		// interface's method list: only a call through the interface is.
		own := map[*ast.Ident]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				own[n.Name] = true
				if internal && n.Name.IsExported() {
					declared[qualified(file.Name.Name, n)] = n.Name.Name
				}
			case *ast.InterfaceType:
				for _, method := range n.Methods.List {
					for _, name := range method.Names {
						own[name] = true
					}
				}
			case *ast.Ident:
				if !own[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	})

	var dead []string
	for name, bare := range declared {
		if !used[bare] && testOnlyExports[name] == "" {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is exported under internal/ but no non-test file uses the name: delete it, or allowlist it with a reason", name)
	}
	for name, reason := range testOnlyExports {
		switch bare, ok := declared[name]; {
		case !ok:
			t.Errorf("allowlist entry %s is no longer declared: remove it", name)
		case used[bare]:
			t.Errorf("allowlist entry %s is used from non-test code now: remove it", name)
		case reason == "":
			t.Errorf("allowlist entry %s has no reason", name)
		}
	}
}

// TestOneAssembly keeps the Fig. 5 wiring in one place: internal/stack is
// the only non-test file outside bench/ (its own module, with timing
// wrappers round the seams) that may name gara.NewSystem, core.NewBroker
// or core.Recover. A second assembly is how gqosm.NewStack and
// sim.NewCluster once drifted apart (DESIGN.md §19).
func TestOneAssembly(t *testing.T) {
	inStack := map[string]bool{"gara.NewSystem": false, "core.NewBroker": false, "core.Recover": false}
	eachNonTestFile(t, func(path string, file *ast.File) {
		if strings.HasPrefix(path, "bench/") {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			name := pkg.Name + "." + sel.Sel.Name
			if _, guarded := inStack[name]; !guarded {
				return true
			}
			if strings.HasPrefix(path, "internal/stack/") {
				inStack[name] = true
			} else {
				t.Errorf("%s names %s: assemble through stack.New (or Stack.RecoverBroker) instead", path, name)
			}
			return true
		})
	})
	for name, seen := range inStack {
		if !seen {
			t.Errorf("internal/stack no longer names %s: the guard is watching the wrong constructor", name)
		}
	}
}

// eachNonTestFile parses every non-test Go file of the repository
// (examples/ and bench/ included, dot-directories skipped) and hands it to
// visit with its slash-separated path relative to the root.
func eachNonTestFile(t *testing.T, visit func(path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// qualified renders a declaration as pkg.Name or pkg.Recv.Name.
func qualified(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	for {
		switch r := recv.(type) {
		case *ast.StarExpr:
			recv = r.X
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		case *ast.Ident:
			return pkg + "." + r.Name + "." + fn.Name.Name
		default:
			panic(fmt.Sprintf("%s: receiver of %s is a %T", pkg, fn.Name.Name, r))
		}
	}
}
