package gqosm

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyExports is the allowlist of TestNoTestOnlyExports: exported
// funcs and methods under internal/ that no non-test file uses, each
// with the reason it stays. Three kinds of entry belong here — methods
// that satisfy an interface (called through it, never selected), test
// seams the invariant oracle needs, and substrate features of the paper
// that only tests drive. Anything else the test lists is deleted.
var testOnlyExports = map[string]string{
	"core.wireError.Unwrap":       "interface method: errors.Is/As reach the taxonomy sentinel through it",
	"clockx.Manual.PendingTimers": "oracle seam: timer-leak checks (a stopped monitor, a closed broker or job manager leaves no timer armed)",
	"core.Broker.SetDebugHook":    "oracle seam: runs invariant.CheckAll after every mutating operation in tests and fuzzing",
	"core.Broker.DebugViolations": "oracle seam: the invariant events the debug hook recorded",
	"invariant.Check":             "oracle seam: the broker-level rules in SetDebugHook's signature, for a serial driver without a pool",
	"dsrt.Scheduler.ReportUsage":  "substrate: DSRT adapts a contract to measured usage (paper 2.1); the broker never reports usage",
	"gram.Manager.Fail":           "substrate: GRAM job failure; the broker only submits and cancels",
	"gram.Manager.Complete":       "substrate: GRAM job completion; the broker only submits and cancels",
	"registry.Registry.Get":       "substrate: UDDIe get_serviceDetail by key; the broker discovers through Find",
	"registry.Registry.Renew":     "substrate: UDDIe lease renewal; services in the stack register once",
	"registry.Registry.Sweep":     "substrate: UDDIe lease expiry sweep; Find already hides expired leases",
	"registry.NewClient":          "substrate: the SOAP client of a remote UDDIe (cmd/registryd, Stack.Mount); the stack's broker holds its registry in-process",
	"registry.Client.Register":    "substrate: UDDIe save_service over SOAP, see registry.NewClient",
	"registry.Client.Deregister":  "substrate: UDDIe delete_service over SOAP, see registry.NewClient",
	"mds.Directory.Mount":         "substrate: MDS's GIIS aggregation (a resource directory mounted under a site's); the stack runs one flat directory",
	"resource.Pool.SetOffline":    "substrate: the 5.6 node failure as the reservation pool sees it (reservations stand, the pool is oversubscribed until the AQoS adapts); the broker takes failures at the Allocator, the pool's differential oracle and GARA's walk-back test drive this",
	"gara.NewStorageManager":      "substrate: GARA's storage reservation-type; the stack reserves disk from the compute pool",
}

// TestNoTestOnlyExports lists every exported func, method or interface
// method declared in a non-test file under internal/ that no non-test file
// of the root module (examples/ included) or of bench/ uses. Identifiers are
// resolved with go/types (see census), so a name shared with a live method
// hides nothing. A method is used when non-test code selects it, or calls a
// method of an interface its type implements; an interface method nobody
// calls is listed together with the implementations nothing selects
// directly. The standard library's own interfaces (container/heap,
// fmt.Stringer, ...) count as called: their callers are outside the census.
func TestNoTestOnlyExports(t *testing.T) {
	c := repoCensus(t)
	declared := map[string]*types.Func{} // "pkg.Recv.Name" -> its object
	var named []*types.Named             // every non-interface named type of the repository
	for _, f := range c.files {
		internal := strings.HasPrefix(f.path, "internal/")
		for _, decl := range f.file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if internal && decl.Name.IsExported() {
					fn := c.info.Defs[decl.Name].(*types.Func)
					declared[qualified(fn)] = fn
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					spec, ok := spec.(*ast.TypeSpec)
					if !ok || spec.Assign.IsValid() {
						continue // an alias declares no type of its own
					}
					typ := c.info.Defs[spec.Name].Type().(*types.Named)
					iface, ok := typ.Underlying().(*types.Interface)
					if !ok {
						named = append(named, typ)
						continue
					}
					for i := 0; internal && i < iface.NumExplicitMethods(); i++ {
						if fn := iface.ExplicitMethod(i); fn.Exported() {
							declared[qualified(fn)] = fn
						}
					}
				}
			}
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn] = true
		}
	}
	// A call through an interface reaches the method of every type that
	// implements it. The standard library's interfaces (error, fmt.Stringer,
	// heap.Interface, http.Handler, ...) are called by the standard library,
	// which the census does not read: their methods all count as called.
	var called []*types.Func
	for fn := range used {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			called = append(called, fn)
		}
	}
	for _, iface := range c.stdInterfaces() {
		for i := 0; i < iface.NumMethods(); i++ {
			called = append(called, iface.Method(i))
		}
	}
	for _, fn := range called {
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, typ := range named {
			if ptr := types.NewPointer(typ); types.Implements(ptr, iface) {
				used[types.NewMethodSet(ptr).Lookup(fn.Pkg(), fn.Name()).Obj().(*types.Func)] = true
			}
		}
	}

	var dead []string
	for name, fn := range declared {
		if !used[fn] && testOnlyExports[name] == "" {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is exported under internal/ but no non-test file uses it: delete it, or allowlist it with a reason", name)
	}
	for name, reason := range testOnlyExports {
		switch fn, ok := declared[name]; {
		case !ok:
			t.Errorf("allowlist entry %s is no longer declared: remove it", name)
		case used[fn]:
			t.Errorf("allowlist entry %s is used from non-test code now: remove it", name)
		case reason == "":
			t.Errorf("allowlist entry %s has no reason", name)
		}
	}
}

// configStructs is the table TestEveryOptionHasASetter walks, as
// "package.Type": the structs whose exported fields are settings a caller
// picks.
var configStructs = []string{
	"stack.Config", "core.Config", "core.RetryPolicy", "core.IntakeConfig", "core.DurabilityConfig",
	"cluster.Config", "wal.Options", "dsrt.Config", "faultx.Plan",
	"sim.StressConfig", "sim.ScenarioConfig", "sim.ClusterSimConfig", "sim.HandoffCrashConfig",
	"shadow.Config",
}

// unsetOptions is the allowlist of TestEveryOptionHasASetter: exported
// fields of configStructs that no non-test file sets, each with the reason
// it stays. Anything else the test lists is deleted and replaced by the one
// value in use.
var unsetOptions = map[string]string{
	"stack.Config.DSRTProcessors":         "substrate: the DSRT scheduler and the RM-level adaptation rung, driven by root tests only until ROADMAP item 6 turns them on in a replay",
	"stack.Config.MinOptimizerGain":       "paper knob: the 5.5 \"considerable gain\" threshold; the root ablation benchmark (BenchmarkAblationOptimizerThreshold, EXPERIMENTS.md) sweeps it, no deployment moves it off 1.0",
	"sim.StressConfig.DisableCaches":      "test seam: the uncached broker is the reference the cache tests compare the cached one against; stack.Config and core.Config forward it",
	"sim.StressConfig.Policy":             "test seam: the only way the named-policy identity tests (explicit \"paper\" = default) reach the chaos and parallel harnesses",
	"core.Config.EventLogCap":             "test seam: a small ring is the only way a test reaches event eviction",
	"core.DurabilityConfig.SnapshotEvery": "test seam: a short cadence is the only way a test lands a snapshot mid-workload",
	"core.IntakeConfig.Depth":             "test seam: a shallow queue is the only way a test reaches back-pressure (ErrIntakeFull)",
	"faultx.Plan.BlockOnHang":             "test seam: really blocking an injected hang, for the per-attempt timeout tests",
	"faultx.Plan.Kinds":                   "test seam: a single fault kind per site, for the tests that aim one fault at one call",
}

// TestEveryOptionHasASetter lists every exported field of configStructs
// that no non-test file of the repository (cmd/, examples/, internal/ and
// bench/ included) ever sets. A field is set when a file names it as a key
// in a composite literal of its struct, or assigns it from outside the
// package that declares the struct — an assignment inside that package is
// the type defaulting itself, not a caller choosing. `X: cfg.X`, where cfg
// is another table struct, is a forward: X is set only if cfg.X is. Fields
// are resolved with go/types, on the census TestNoTestOnlyExports reads.
func TestEveryOptionHasASetter(t *testing.T) {
	c := repoCensus(t)
	names := map[*types.Var]string{} // exported table field -> "package.Type.Field"
	var order []string
	for _, s := range configStructs {
		pkg, name, _ := strings.Cut(s, ".")
		var st *types.Struct
		for _, p := range c.pkgs {
			if obj := p.Scope().Lookup(name); obj != nil && p.Name() == pkg {
				st, _ = obj.Type().Underlying().(*types.Struct)
			}
		}
		if st == nil {
			t.Errorf("%s is no longer declared: the guard is watching the wrong struct", s)
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				names[f] = s + "." + f.Name()
				order = append(order, names[f])
			}
		}
	}

	direct := map[string]bool{}       // a literal key or an outside assignment sets the field
	forwards := map[string][]string{} // field -> the table fields whose value it is handed
	set := func(field *types.Var, value ast.Expr) {
		if sel, ok := value.(*ast.SelectorExpr); ok {
			if from, ok := c.info.Uses[sel.Sel].(*types.Var); ok && names[from] != "" {
				forwards[names[field]] = append(forwards[names[field]], names[from])
				return
			}
		}
		direct[names[field]] = true
	}
	for _, f := range c.files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || len(n.Lhs) != len(n.Rhs) {
						continue
					}
					// An assignment inside the declaring package is the type's
					// own defaulting.
					if field, ok := c.info.Uses[sel.Sel].(*types.Var); ok && names[field] != "" && field.Pkg() != f.pkg {
						set(field, n.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				typ := c.info.TypeOf(n)
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem() // an elided &T{...} inside a []*T or map[K]*T literal
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if field := c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); names[field] != "" {
							set(field, kv.Value)
						}
					} else if field := st.Field(i); names[field] != "" { // positional: every field is named
						direct[names[field]] = true
					}
				}
			}
			return true
		})
	}
	// verdicts settles which fields are set: the direct ones, the seeds, and
	// every field forwarded from a set one.
	verdicts := func(seeds map[string]string) map[string]bool {
		set := map[string]bool{}
		for name := range direct {
			set[name] = true
		}
		for name := range seeds {
			set[name] = true
		}
		for changed := true; changed; {
			changed = false
			for name, from := range forwards {
				if !set[name] && slices.ContainsFunc(from, func(src string) bool { return set[src] }) {
					set[name], changed = true, true
				}
			}
		}
		return set
	}

	raw, seeded := verdicts(nil), verdicts(unsetOptions)
	for _, name := range order {
		if !seeded[name] {
			t.Errorf("%s is an exported option that no non-test file sets: delete it and keep the one value in use, or allowlist it with a reason", name)
		}
	}
	t.Logf("%d exported fields over %d structs, %d allowlisted", len(order), len(configStructs), len(unsetOptions))
	if len(unsetOptions) > 10 {
		t.Errorf("allowlist has %d entries; it is capped at 10", len(unsetOptions))
	}
	for name, reason := range unsetOptions {
		switch {
		case !slices.Contains(order, name):
			t.Errorf("allowlist entry %s is no longer declared: remove it", name)
		case raw[name]:
			t.Errorf("allowlist entry %s is set from non-test code now: remove it", name)
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
	for _, f := range repoCensus(t).files {
		path := f.path
		if strings.HasPrefix(path, "bench/") {
			continue
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
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
	}
	for name, seen := range inStack {
		if !seen {
			t.Errorf("internal/stack no longer names %s: the guard is watching the wrong constructor", name)
		}
	}
}

// census is every non-test Go file of the repository (examples/ and
// bench/ included, dot-directories skipped), parsed and type-checked once
// for the guards above. Repository packages are checked from the parsed
// files, bench/ (its own module) among them as gqosm/bench; the standard
// library comes from go/importer in "source" mode, so nothing outside the
// toolchain is needed.
type census struct {
	fset  *token.FileSet
	info  *types.Info
	std   types.Importer
	dirs  map[string][]*ast.File    // directory -> its parsed files
	pkgs  map[string]*types.Package // import path -> checked package
	files []censusFile
}

// censusFile is one parsed file with its slash-separated path relative to
// the root and the package it belongs to.
type censusFile struct {
	path string
	pkg  *types.Package
	file *ast.File
}

// repoCensus returns the census, built by the first guard that asks.
func repoCensus(t *testing.T) *census {
	t.Helper()
	c, err := loadCensus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var loadCensus = sync.OnceValues(func() (*census, error) {
	c := &census{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		dirs: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
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
		file, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		c.dirs[dir] = append(c.dirs[dir], file)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for dir, files := range c.dirs {
		pkg, err := c.Import(strings.TrimSuffix("gqosm/"+dir, "/."))
		if err != nil {
			return nil, err
		}
		for _, file := range files {
			c.files = append(c.files, censusFile{path: filepath.ToSlash(c.fset.File(file.Package).Name()), pkg: pkg, file: file})
		}
	}
	sort.Slice(c.files, func(i, j int) bool { return c.files[i].path < c.files[j].path })
	return c, nil
})

// Import type-checks a repository package on first use (types.Importer).
func (c *census) Import(path string) (*types.Package, error) {
	dir, inRepo := ".", path == "gqosm"
	if !inRepo {
		dir, inRepo = strings.CutPrefix(path, "gqosm/")
	}
	if !inRepo {
		return c.std.Import(path)
	}
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, c.dirs[dir], c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg
	return pkg, nil
}

// stdInterfaces lists the method-bearing interfaces the standard-library
// packages the repository imports, directly or not, export, and error.
func (c *census) stdInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(pkgs []*types.Package)
	visit = func(pkgs []*types.Package) {
		for _, pkg := range pkgs {
			if seen[pkg] {
				continue
			}
			seen[pkg] = true
			visit(pkg.Imports())
			if c.pkgs[pkg.Path()] != nil {
				continue
			}
			for _, name := range pkg.Scope().Names() {
				obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || !obj.Exported() {
					continue
				}
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && iface.IsMethodSet() {
					out = append(out, iface)
				}
			}
		}
	}
	for _, pkg := range c.pkgs {
		visit([]*types.Package{pkg})
	}
	return out
}

// qualified renders a func as pkg.Name, a method as pkg.Recv.Name.
func qualified(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		name += typ.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}
