package gqosm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
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

// configStructs is the table TestEveryOptionHasASetter walks, as
// "package.Type": the structs whose exported fields are settings a caller
// picks.
var configStructs = []string{
	"stack.Config", "core.Config", "core.RetryPolicy", "core.IntakeConfig", "core.DurabilityConfig",
	"cluster.Config", "wal.Options", "dsrt.Config", "faultx.Plan",
}

// unsetOptions is the allowlist of TestEveryOptionHasASetter: exported
// fields of configStructs that no non-test file sets, each with the reason
// it stays. Anything else the test lists is deleted and replaced by the one
// value in use.
var unsetOptions = map[string]string{
	"stack.Config.DSRTProcessors":         "substrate: the DSRT scheduler and the RM-level adaptation rung, driven by root tests only until ROADMAP item 6 turns them on in a replay",
	"stack.Config.MinOptimizerGain":       "paper knob: the 5.5 \"considerable gain\" threshold; the root ablation benchmark (BenchmarkAblationOptimizerThreshold, EXPERIMENTS.md) sweeps it, no deployment moves it off 1.0",
	"stack.Config.RepoDir":                "substrate: the paper's Table-4 SLA file repository, driven by root tests only (ROADMAP item 6)",
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
// is another table struct, is a forward: X is set only if cfg.X is.
//
// Types are resolved from syntax alone (go/parser, like the sibling above):
// import names, aliases, parameters, receivers and `x := T{}`-style locals.
// Where that fails the match falls back to the bare field name, so the test
// under-reports and never over-reports.
func TestEveryOptionHasASetter(t *testing.T) {
	o := newOptionCensus(t)
	raw := o.verdicts(nil)
	seeded := o.verdicts(unsetOptions)
	fields := 0
	for _, s := range configStructs {
		if _, ok := o.structs[s]; !ok {
			t.Errorf("%s is no longer declared: the guard is watching the wrong struct", s)
		}
		for _, f := range o.exported[s] {
			fields++
			if name := s + "." + f; !seeded[name] {
				t.Errorf("%s is an exported option that no non-test file sets: delete it and keep the one value in use, or allowlist it with a reason", name)
			}
		}
	}
	t.Logf("%d exported fields over %d structs, %d allowlisted", fields, len(configStructs), len(unsetOptions))
	if len(unsetOptions) > 10 {
		t.Errorf("allowlist has %d entries; it is capped at 10", len(unsetOptions))
	}
	for name, reason := range unsetOptions {
		i := strings.LastIndex(name, ".")
		switch {
		case !slices.Contains(o.exported[name[:i]], name[i+1:]):
			t.Errorf("allowlist entry %s is no longer declared: remove it", name)
		case raw[name]:
			t.Errorf("allowlist entry %s is set from non-test code now: remove it", name)
		case reason == "":
			t.Errorf("allowlist entry %s has no reason", name)
		}
	}
}

// optionCensus is what TestEveryOptionHasASetter learns from one parse of
// the repository. Struct and field names are "package.Type[.Field]", the
// package being the last element of the file's directory.
type optionCensus struct {
	structs  map[string]map[string]string // struct -> field -> struct type of the field ("" when it has none)
	exported map[string][]string          // table struct -> its exported fields, in declaration order
	direct   map[string]bool              // field -> a literal key or an outside assignment sets it
	forwards map[string][]string          // field -> the fields whose value it is handed
}

// optionFile is one parsed file with the names its selectors resolve by.
type optionFile struct {
	pkg     string
	imports map[string]string // local import name -> package
	file    *ast.File
}

func newOptionCensus(t *testing.T) *optionCensus {
	o := &optionCensus{
		structs:  map[string]map[string]string{},
		exported: map[string][]string{},
		direct:   map[string]bool{},
		forwards: map[string][]string{},
	}
	var files []optionFile
	eachNonTestFile(t, func(path string, file *ast.File) {
		f := optionFile{pkg: "gqosm", imports: map[string]string{}, file: file}
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			f.pkg = dir[strings.LastIndex(dir, "/")+1:]
		}
		for _, imp := range file.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if ipath != "gqosm" && !strings.HasPrefix(ipath, "gqosm/") {
				continue
			}
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				f.imports[imp.Name.Name] = name
			} else {
				f.imports[name] = name
			}
		}
		files = append(files, f)
	})

	// Declarations first: aliases, then every struct's field types.
	aliases := map[string]string{}
	eachTypeSpec(files, func(f optionFile, spec *ast.TypeSpec) {
		if spec.Assign.IsValid() {
			aliases[f.pkg+"."+spec.Name.Name] = f.typeName(spec.Type, nil)
		}
	})
	eachTypeSpec(files, func(f optionFile, spec *ast.TypeSpec) {
		st, ok := spec.Type.(*ast.StructType)
		if !ok {
			return
		}
		name := f.pkg + "." + spec.Name.Name
		o.structs[name] = map[string]string{}
		for _, field := range st.Fields.List {
			for _, id := range field.Names {
				o.structs[name][id.Name] = f.typeName(field.Type, aliases)
				if id.IsExported() && slices.Contains(configStructs, name) {
					o.exported[name] = append(o.exported[name], id.Name)
				}
			}
		}
	})

	for _, f := range files {
		for _, decl := range f.file.Decls {
			w := &optionWalk{o: o, f: f, aliases: aliases, env: map[string]string{}, elided: map[*ast.CompositeLit]string{}}
			if fn, ok := decl.(*ast.FuncDecl); ok {
				w.bind(fn.Recv)
				w.bind(fn.Type.Params)
				w.bind(fn.Type.Results)
			}
			ast.Inspect(decl, w.visit)
		}
	}
	return o
}

func eachTypeSpec(files []optionFile, visit func(optionFile, *ast.TypeSpec)) {
	for _, f := range files {
		for _, decl := range f.file.Decls {
			if gen, ok := decl.(*ast.GenDecl); ok && gen.Tok == token.TYPE {
				for _, spec := range gen.Specs {
					visit(f, spec.(*ast.TypeSpec))
				}
			}
		}
	}
}

// typeName renders a type expression as "package.Type" ("" for anything
// that is not a named type of this repository), pointers stripped and
// aliases followed.
func (f optionFile) typeName(e ast.Expr, aliases map[string]string) string {
	name := ""
	switch e := e.(type) {
	case *ast.StarExpr:
		return f.typeName(e.X, aliases)
	case *ast.ParenExpr:
		return f.typeName(e.X, aliases)
	case *ast.Ident:
		name = f.pkg + "." + e.Name
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok && f.imports[pkg.Name] != "" {
			name = f.imports[pkg.Name] + "." + e.Sel.Name
		}
	}
	if to, ok := aliases[name]; ok {
		return to
	}
	return name
}

// optionWalk visits one top-level declaration, keeping the declared type of
// every local it can name.
type optionWalk struct {
	o       *optionCensus
	f       optionFile
	aliases map[string]string
	env     map[string]string            // local name -> its struct type
	elided  map[*ast.CompositeLit]string // `{...}` inside a []T / map[K]T literal -> T
}

func (w *optionWalk) bind(fields *ast.FieldList) {
	if fields == nil {
		return
	}
	for _, field := range fields.List {
		for _, id := range field.Names {
			w.env[id.Name] = w.f.typeName(field.Type, w.aliases)
		}
	}
}

// typeOf is the struct type of an expression, "" when syntax does not say.
func (w *optionWalk) typeOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return w.typeOf(e.X)
	case *ast.StarExpr:
		return w.typeOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.typeOf(e.X)
		}
	case *ast.CompositeLit:
		if e.Type == nil {
			return w.elided[e]
		}
		return w.f.typeName(e.Type, w.aliases)
	case *ast.Ident:
		return w.env[e.Name]
	case *ast.SelectorExpr:
		return w.o.structs[w.typeOf(e.X)][e.Sel.Name]
	}
	return ""
}

func (w *optionWalk) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		w.bind(n.Type.Params)
	case *ast.ValueSpec:
		for i, id := range n.Names {
			if n.Type != nil {
				w.env[id.Name] = w.f.typeName(n.Type, w.aliases)
			} else if i < len(n.Values) {
				w.env[id.Name] = w.typeOf(n.Values[i])
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if len(n.Lhs) != len(n.Rhs) {
				break
			}
			if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE {
				w.env[id.Name] = w.typeOf(n.Rhs[i])
			}
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			for _, s := range w.owners(sel) {
				// An assignment inside the declaring package is the type's
				// own defaulting.
				if s[:strings.Index(s, ".")] != w.f.pkg {
					w.set(s+"."+sel.Sel.Name, n.Rhs[i])
				}
			}
		}
	case *ast.CompositeLit:
		var elem ast.Expr
		switch lt := n.Type.(type) {
		case *ast.ArrayType:
			elem = lt.Elt
		case *ast.MapType:
			elem = lt.Value
		}
		s := w.typeOf(n)
		for _, elt := range n.Elts {
			kv, keyed := elt.(*ast.KeyValueExpr)
			if elem != nil {
				if keyed {
					elt = kv.Value
				}
				if lit, ok := elt.(*ast.CompositeLit); ok && lit.Type == nil {
					w.elided[lit] = w.f.typeName(elem, w.aliases)
				}
				continue
			}
			if !slices.Contains(configStructs, s) {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); keyed && ok {
				w.set(s+"."+key.Name, kv.Value)
			} else { // positional: every field is named
				for _, f := range w.o.exported[s] {
					w.o.direct[s+"."+f] = true
				}
			}
		}
	}
	return true
}

// owners lists the table structs a selector x.F may be a field of: the one
// x resolves to, or, when x does not resolve, every table struct with an F.
func (w *optionWalk) owners(sel *ast.SelectorExpr) []string {
	if x, ok := sel.X.(*ast.Ident); ok && w.f.imports[x.Name] != "" && w.env[x.Name] == "" {
		return nil // package-qualified name, not a field
	}
	if s := w.typeOf(sel.X); s != "" {
		if slices.Contains(configStructs, s) {
			return []string{s}
		}
		return nil
	}
	var out []string
	for _, s := range configStructs {
		if slices.Contains(w.o.exported[s], sel.Sel.Name) {
			out = append(out, s)
		}
	}
	return out
}

// set records field as handed value: a forward when value is itself a
// field of a table struct, a direct set otherwise.
func (w *optionWalk) set(field string, value ast.Expr) {
	if sel, ok := value.(*ast.SelectorExpr); ok {
		if from := w.owners(sel); len(from) > 0 {
			for _, s := range from {
				w.o.forwards[field] = append(w.o.forwards[field], s+"."+sel.Sel.Name)
			}
			return
		}
	}
	w.o.direct[field] = true
}

// verdicts settles which fields are set: the direct ones, the seeds, and
// every field forwarded from a set one.
func (o *optionCensus) verdicts(seeds map[string]string) map[string]bool {
	set := map[string]bool{}
	for name := range o.direct {
		set[name] = true
	}
	for name := range seeds {
		set[name] = true
	}
	for changed := true; changed; {
		changed = false
		for name, from := range o.forwards {
			if !set[name] && slices.ContainsFunc(from, func(src string) bool { return set[src] }) {
				set[name], changed = true, true
			}
		}
	}
	return set
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
