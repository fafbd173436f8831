package gqosm

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyExports is the allowlist of TestNoTestOnlyExports, capped at
// 18: declarations under internal/ that no non-test file uses, each with
// the reason it stays; what an entry uses stays with it. Three kinds of
// entry belong here — methods that satisfy an interface (called through
// it, never selected), test seams the invariant oracle needs, and
// substrate features of the paper that only tests drive. Anything else
// the test lists is deleted.
var testOnlyExports = map[string]string{
	"core.Broker.SetDebugHook":    "oracle seam: runs invariant.CheckAll after every mutating operation in tests and fuzzing",
	"core.Broker.DebugViolations": "oracle seam: the invariant events the debug hook recorded",
	"invariant.Check":             "oracle seam: the broker-level rules in SetDebugHook's signature, for a serial driver without a pool",
	"dsrt.Scheduler.ReportUsage":  "substrate: DSRT adapts a contract to measured usage (paper 2.1); the broker never reports usage",
	"gram.Manager.Fail":           "substrate: GRAM job failure; the broker only submits and cancels",
	"gram.Manager.Complete":       "substrate: GRAM job completion; the broker only submits and cancels",
	"registry.Registry.Get":       "substrate: UDDIe get_serviceDetail by key; the broker discovers through First",
	"registry.Registry.Renew":     "substrate: UDDIe lease renewal; services in the stack register once",
	"registry.Registry.Sweep":     "substrate: UDDIe lease expiry sweep; Find and First already hide expired leases",
	"registry.NewClient":          "substrate: the SOAP client of a remote UDDIe (aqosd serves one through Stack.Mount); the stack's broker holds its registry in-process",
	"registry.Client.Find":        "substrate: UDDIe find_service over SOAP, see registry.NewClient",
	"registry.Client.Register":    "substrate: UDDIe save_service over SOAP, see registry.NewClient",
	"registry.Client.Deregister":  "substrate: UDDIe delete_service over SOAP, see registry.NewClient",
	"rsl.Node.Eval":               "substrate: RSL evaluation of an offer against a specification; GARA reads a specification through Lookup and SubRequests",
	"nrm.Topology.SetCongestion":  "substrate: the scenario-3 network degradation injected on a link; tests and the degradation example drive it",
	"core.Broker.Promotions":      "substrate: the open scenario-2(c) offers as a client lists them; the wire carries accept_promotion and the activity log names each offer",
	"resource.Pool.SetOffline":    "substrate: the 5.6 node failure as the reservation pool sees it (reservations stand, the pool is oversubscribed until the AQoS adapts); the broker takes failures at the Allocator, the pool's differential oracle and GARA's walk-back test drive this",
	"gara.NewStorageManager":      "substrate: GARA's storage reservation-type; the stack reserves disk from the compute pool",
}

// TestNoTestOnlyExports lists every package-level declaration in a non-test
// file under internal/ — a func or method, an interface method, an exported
// type, var or const — that no non-test file of the root module or of bench/
// uses. Identifiers are resolved with go/types (see census), so a name shared
// with a live method hides nothing. A use inside the declaration's own body
// is not a use, and a declaration whose only users are listed is listed too.
// A method is also used when non-test code calls a method of an interface its
// type implements; an interface method nobody calls is listed together with
// the implementations nothing selects directly. The standard library's own
// interfaces (container/heap, fmt.Stringer, ...) count as called: their
// callers are outside the census, and so does an error's Unwrap, which the
// errors package calls through interfaces it does not export.
func TestNoTestOnlyExports(t *testing.T) {
	c := repoCensus(t)
	declared := map[types.Object]string{} // checked declaration -> "pkg.Recv.Name"
	var named []*types.Named              // every non-interface named type of the repository
	users := map[types.Object][]types.Object{}
	for _, f := range c.files {
		internal := strings.HasPrefix(f.path, "internal/")
		declare := func(obj types.Object) {
			if internal && obj.Name() != "_" && obj.Name() != "init" {
				declared[obj] = qualified(obj)
			}
		}
		// use records that the top-level declaration owner names something
		// inside node; a nil owner (a blank var) is always live.
		use := func(owner types.Object, node ast.Node) {
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := c.info.Uses[id]; obj != nil && obj != owner {
						users[obj] = append(users[obj], owner)
					}
				}
				return true
			})
		}
		for _, decl := range f.file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn := c.info.Defs[decl.Name]
				declare(fn)
				use(fn, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						var owner types.Object
						for _, name := range spec.Names {
							if obj := c.info.Defs[name]; name.IsExported() {
								declare(obj)
								owner = obj
							} else if name.Name != "_" && owner == nil {
								owner = obj
							}
						}
						use(owner, spec)
					case *ast.TypeSpec:
						obj := c.info.Defs[spec.Name]
						if spec.Name.IsExported() {
							declare(obj)
						}
						use(obj, spec)
						typ, ok := obj.Type().(*types.Named)
						if !ok || spec.Assign.IsValid() {
							continue // an alias declares no type of its own
						}
						iface, ok := typ.Underlying().(*types.Interface)
						if !ok {
							named = append(named, typ)
							continue
						}
						for i := 0; i < iface.NumExplicitMethods(); i++ {
							if fn := iface.ExplicitMethod(i); fn.Exported() {
								declare(fn)
							}
						}
					}
				}
			}
		}
	}

	// A call through an interface reaches the method of every type that
	// implements it. The standard library's interfaces (error, fmt.Stringer,
	// heap.Interface, http.Handler, ...) are called by the standard library,
	// which the census does not read: their methods all count as called.
	viaInterface := map[types.Object]bool{}
	var called []*types.Func
	for obj := range users {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called = append(called, fn)
			}
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
				viaInterface[types.NewMethodSet(ptr).Lookup(fn.Pkg(), fn.Name()).Obj()] = true
			}
		}
	}

	// dead grows to a fixpoint: a declaration is dead when every user it has
	// is dead already. An allowlisted declaration stays, and so does what it
	// uses.
	dead := map[types.Object]bool{}
	unused := func(obj types.Object) bool {
		return !viaInterface[obj] && !slices.ContainsFunc(users[obj], func(u types.Object) bool { return u == nil || !dead[u] })
	}
	for changed := true; changed; {
		changed = false
		for obj, name := range declared {
			if !dead[obj] && testOnlyExports[name] == "" && unused(obj) {
				dead[obj], changed = true, true
			}
		}
	}
	var listed []string
	for obj := range dead {
		listed = append(listed, declared[obj])
	}
	sort.Strings(listed)
	for _, name := range listed {
		t.Errorf("%s is declared under internal/ but no non-test file uses it outside its own body: delete it, or allowlist it with a reason", name)
	}
	if len(testOnlyExports) > 18 {
		t.Errorf("allowlist has %d entries; it is capped at 18", len(testOnlyExports))
	}
	byName := map[string]types.Object{}
	for obj, name := range declared {
		byName[name] = obj
	}
	for name, reason := range testOnlyExports {
		switch obj, ok := byName[name]; {
		case !ok:
			t.Errorf("allowlist entry %s is no longer declared: remove it", name)
		case !unused(obj):
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
	"sim.StressConfig", "sim.ScenarioConfig", "sim.FederationConfig",
}

// unsetOptions is the allowlist of TestEveryOptionHasASetter: exported
// fields of configStructs that no non-test file sets, each with the reason
// it stays. Anything else the test lists is deleted and replaced by the one
// value in use.
var unsetOptions = map[string]string{
	"stack.Config.DSRTProcessors":         "substrate: the DSRT scheduler and the RM-level adaptation rung, driven by root tests only until ROADMAP item 6 turns them on in a replay",
	"stack.Config.MinOptimizerGain":       "paper knob: the 5.5 \"considerable gain\" threshold; the root ablation benchmark (BenchmarkAblationOptimizerThreshold, EXPERIMENTS.md) sweeps it, no deployment moves it off 1.0",
	"core.Config.EventLogCap":             "test seam: a small ring is the only way a test reaches event eviction",
	"core.DurabilityConfig.SnapshotEvery": "test seam: a short cadence is the only way a test lands a snapshot mid-workload",
	"core.IntakeConfig.Depth":             "test seam: a shallow queue is the only way a test reaches back-pressure (ErrIntakeFull)",
	"faultx.Plan.BlockOnHang":             "test seam: really blocking an injected hang, for the per-attempt timeout tests",
	"faultx.Plan.Kinds":                   "test seam: a single fault kind per site, for the tests that aim one fault at one call",
}

// TestEveryOptionHasASetter lists every exported field of configStructs
// that no non-test file of the repository (cmd/, internal/ and bench/
// included) ever sets. A field is set when a file names it as a key
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
	if len(unsetOptions) > 7 {
		t.Errorf("allowlist has %d entries; it is capped at 7", len(unsetOptions))
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

// unreadFields is the allowlist of TestEveryFieldIsRead, capped at 12:
// struct fields under internal/ that non-test code writes and never reads,
// each with the reason it stays. Three reasons hold: bench/ writes it (only
// a benchmark change may edit bench/, so these are ROADMAP item 28's to-do
// list), a substrate handle the stack hands to tests, and the §5.3 solvers'
// exported answer. Anything else the test lists is deleted.
var unreadFields = map[string]string{
	"wal.Record.At":             "bench/ writes it (bench/probes.go's append probe); recovery never reads it, and deleting it shrinks every record",
	"wal.Record.Op":             "bench/ writes it (bench/probes.go's append probe); recovery never reads it, and deleting it shrinks every record",
	"wal.Snapshot.At":           "bench/ writes it (bench/probes.go's snapshot probe); recovery never reads it",
	"sla.Document.Client":       "bench/ writes it (bench/probes.go's probe document); durable in every session record, read by no one",
	"sla.Document.Provider":     "bench/ writes it (bench/probes.go's probe document); durable in every session record, read by no one",
	"resource.Reservation.Tag":  "bench/ writes it: the tag argument of Pool.Reserve in bench/probes.go",
	"cluster.Config.Placement":  "bench/ writes it: bench/env.go spells cluster.PlaceHash",
	"core.Config.MDS":           "bench/ writes it: bench/stack.go wires the MDS directory, which the deployment no longer builds; item 28 drops the literal, the field and package mds",
	"stack.Stack.DSRT":          "substrate handle: tests drive the DSRT scheduler the stack assembled",
	"stack.Stack.NRM":           "substrate handle: tests and the degradation example drive the NRM the stack assembled",
	"core.OptResult.Assignment": "the exported solvers' per-service answer (Greedy, Exact, the C4 baselines), checked by the oracle tests; RunOptimizer reads the kernel's slice instead of the map",
	"core.IntakeConfig.Enabled": "bench/stack.go:120 writes it; item 28 drops the literal",
}

// TestEveryFieldIsRead lists every struct field declared under internal/
// that non-test code writes and never reads. A write is an assignment, an
// increment, an index assignment or delete, or a composite-literal key;
// x.f = append(x.f, ...) — or any x.f = g(x.f, ...) — does not read x.f.
// A field a json or xml tag names, or of a struct reachable from the static
// type of an argument to an encoding/json or encoding/xml encoder, is read
// by reflection — except in package wal, where a durable field is read only
// when code selects it.
func TestEveryFieldIsRead(t *testing.T) {
	c := repoCensus(t)
	uses := c.fieldAccess()
	written, read := uses.written, uses.read
	names, tagged := c.internalFields()
	for f := range tagged {
		if f.Pkg().Name() != "wal" { // a json or xml tag is a read by reflection, outside package wal
			read[f] = true
		}
	}

	var listed []string
	for field, name := range names {
		if written[field] && !read[field] && unreadFields[name] == "" {
			listed = append(listed, name)
		}
	}
	sort.Strings(listed)
	for _, name := range listed {
		t.Errorf("%s is written by non-test code and read by none: delete it, or allowlist it with a reason", name)
	}
	if len(unreadFields) > 12 {
		t.Errorf("allowlist has %d entries; it is capped at 12", len(unreadFields))
	}
	for name, reason := range unreadFields {
		var field *types.Var
		for f, n := range names {
			if n == name {
				field = f
			}
		}
		switch {
		case field == nil:
			t.Errorf("allowlist entry %s is no longer declared: remove it", name)
		case read[field]:
			t.Errorf("allowlist entry %s is read from non-test code now: remove it", name)
		case !written[field]:
			t.Errorf("allowlist entry %s is written by no non-test code now: remove it", name)
		case reason == "":
			t.Errorf("allowlist entry %s has no reason", name)
		}
	}
}

// setlessFields is the allowlist of TestEveryReadFieldIsSet, capped at 2:
// exported fields under internal/ that non-test code reads and never sets,
// each with the reason it stays. Anything else the test lists is deleted
// and replaced by the one value in use.
var setlessFields = map[string]string{
	"nrm.Congestion.ExtraDelayMS": "NRM substrate: injected only through SetCongestion, which the §5.4 adaptation tests drive",
	"nrm.Congestion.LossPct":      "NRM substrate: injected only through SetCongestion, which the §5.4 adaptation tests drive",
}

// TestEveryReadFieldIsSet lists every exported struct field declared under
// internal/ that non-test code reads and never sets: a constant in
// disguise. A field is set by a write (as TestEveryFieldIsRead defines
// it) or by taking its address, except that a write whose value is
// another field — a Clone's c.X = d.X, a forward such as Penalty:
// m.req.Penalty — sets it only if that field is set. A field a json or
// xml tag names, an XMLName and an embedded field are set by reflection,
// and the configuration test seams of unsetOptions count as set.
func TestEveryReadFieldIsSet(t *testing.T) {
	c := repoCensus(t)
	uses := c.fieldAccess()
	names, tagged := c.internalFields()
	// verdicts settles which fields are set: the direct ones, the seeds, and
	// every field copied from a set one or from one outside internal/.
	verdicts := func(seeds map[string]string) map[*types.Var]bool {
		set := maps.Clone(uses.set)
		for f, name := range names {
			if tagged[f] || f.Name() == "XMLName" || unsetOptions[name] != "" || seeds[name] != "" {
				set[f] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for f, from := range uses.copied {
				if !set[f] && slices.ContainsFunc(from, func(src *types.Var) bool { return set[src] || names[src] == "" }) {
					set[f], changed = true, true
				}
			}
		}
		return set
	}
	raw, seeded := verdicts(nil), verdicts(setlessFields)

	var listed []string
	for f, name := range names {
		if f.Exported() && uses.read[f] && !seeded[f] {
			listed = append(listed, name)
		}
	}
	sort.Strings(listed)
	for _, name := range listed {
		t.Errorf("%s is read by non-test code and set by none: delete it and keep the one value in use, or allowlist it with a reason", name)
	}
	if len(setlessFields) > 2 {
		t.Errorf("allowlist has %d entries; it is capped at 2", len(setlessFields))
	}
	for name, reason := range setlessFields {
		var field *types.Var
		for f, n := range names {
			if n == name {
				field = f
			}
		}
		switch {
		case field == nil:
			t.Errorf("allowlist entry %s is no longer declared: remove it", name)
		case raw[field]:
			t.Errorf("allowlist entry %s is set from non-test code now: remove it", name)
		case !uses.read[field]:
			t.Errorf("allowlist entry %s is read by no non-test code now: remove it", name)
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

// clearingSites lists, for each resource-manager cancel, the functions in
// internal/core that may name it.
var clearingSites = map[string][]string{
	// The Clearing step, and Invoke walking back its own job when the bind
	// fails or a teardown wins the race.
	"gram.Manager.Cancel": {"core.Broker.teardownIf", "core.Broker.Invoke"},
	// The give-back rule, the parked-cancel sweep (which must not re-park)
	// and the closed-broker walk-back of sessions never registered.
	"gara.System.Cancel": {"core.Broker.giveBack", "core.Broker.sweepParked", "core.Broker.install"},
}

// TestOneClearing keeps the Clearing phase (Fig. 3) one step: in non-test
// internal/core only the clearingSites functions name a job or
// reservation cancel, so every session end runs teardownIf and every
// reservation return runs giveBack. ROADMAP item 10 hangs its release
// trigger on that one step.
func TestOneClearing(t *testing.T) {
	c := repoCensus(t)
	seen := map[string]bool{}
	for _, f := range c.files {
		if !strings.HasPrefix(f.path, "internal/core/") {
			continue
		}
		for _, decl := range f.file.Decls {
			site := f.path + ":(package level)"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				site = qualified(c.info.Defs[fn.Name])
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := c.info.Uses[id].(*types.Func)
				if !ok || fn.Name() != "Cancel" {
					return true
				}
				allowed, guarded := clearingSites[qualified(fn)]
				if !guarded {
					return true
				}
				if !slices.Contains(allowed, site) {
					t.Errorf("%s: %s names %s: end the session through teardownIf, return the reservation through giveBack",
						c.fset.Position(id.Pos()), site, qualified(fn))
				}
				seen[qualified(fn)+" in "+site] = true
				return true
			})
		}
	}
	for cancel, sites := range clearingSites {
		for _, site := range sites {
			if !seen[cancel+" in "+site] {
				t.Errorf("%s no longer names %s: remove it from clearingSites", site, cancel)
			}
		}
	}
}

// TestOpsCaptureNothing keeps RM calls free of closures: in non-test
// internal/core the op of every call and callOnce is a func literal that
// names no local variable of its enclosing function. Its inputs travel in
// args, so the call allocates nothing (core's TestRMCallAllocGate); an op
// that captured its inputs would be a heap closure on every call.
func TestOpsCaptureNothing(t *testing.T) {
	c := repoCensus(t)
	calls := 0
	for _, f := range c.files {
		if !strings.HasPrefix(f.path, "internal/core/") {
			continue
		}
		for _, decl := range f.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, ok := c.callee(call).(*types.Func)
				if !ok || callee.Pkg() == nil || qualified(callee) != "core.call" && qualified(callee) != "core.callOnce" {
					return true
				}
				calls++
				site := c.fset.Position(call.Pos())
				lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
				if !ok {
					t.Errorf("%s: the op of %s is not a func literal", site, callee.Name())
					return true
				}
				ast.Inspect(lit.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					v, ok := c.info.Uses[id].(*types.Var)
					inFunc := ok && v.Pos() >= fn.Pos() && v.Pos() < fn.End()
					if inFunc && !v.IsField() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
						t.Errorf("%s: the op of %s captures %s of %s: pass it in args", site, callee.Name(), id.Name, fn.Name.Name)
					}
					return true
				})
				return true
			})
		}
	}
	if calls == 0 {
		t.Error("no call or callOnce in internal/core: the guard is watching the wrong functions")
	}
}

// sizeCeilings is the size gate's table: non-test Go lines per package
// outside bench/, and the bytes of the three long documents, as the last
// change that moved them left them. TestSizeCeilings holds the tree to it
// exactly, so no growth is silent: a change that grows a package raises
// its ceiling and names the reason in CHANGES.md, and one that shrinks a
// package lowers it.
var sizeCeilings = map[string]int{
	"DESIGN.md":                127382,
	"EXPERIMENTS.md":           220423,
	"README.md":                43341,
	"gqosm":                    154,
	"gqosm/cmd/aqosd":          208,
	"gqosm/cmd/gridsim":        638,
	"gqosm/cmd/qosctl":         356,
	"gqosm/internal/clockx":    207,
	"gqosm/internal/cluster":   336,
	"gqosm/internal/core":      6790,
	"gqosm/internal/dsrt":      311,
	"gqosm/internal/faultx":    356,
	"gqosm/internal/gara":      947,
	"gqosm/internal/gram":      319,
	"gqosm/internal/httpapi":   1286,
	"gqosm/internal/invariant": 475,
	"gqosm/internal/mds":       52,
	"gqosm/internal/nrm":       535,
	"gqosm/internal/obs":       361,
	"gqosm/internal/pricing":   462,
	"gqosm/internal/registry":  594,
	"gqosm/internal/resource":  489,
	"gqosm/internal/rsl":       564,
	"gqosm/internal/sim":       3387,
	"gqosm/internal/sla":       892,
	"gqosm/internal/soapx":     1105,
	"gqosm/internal/stack":     311,
	"gqosm/internal/wal":       685,
	"gqosm/internal/xmlmsg":    214,
}

// TestSizeCeilings gates size the way the allocation gates gate
// allocations (ROADMAP item 36).
func TestSizeCeilings(t *testing.T) {
	c := repoCensus(t)
	got := map[string]int{}
	for _, f := range c.files {
		if !strings.HasPrefix(f.path, "bench/") {
			got[f.pkg.Path()] += c.fset.File(f.file.Pos()).LineCount()
		}
	}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		info, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		got[doc] = int(info.Size())
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ceiling, ok := sizeCeilings[name]
		switch n := got[name]; {
		case !ok:
			t.Errorf("%s (%d) has no ceiling: add one", name, n)
		case n > ceiling:
			t.Errorf("%s grew to %d past its ceiling %d: raise the ceiling and name the reason in CHANGES.md", name, n, ceiling)
		case n < ceiling:
			t.Errorf("%s shrank to %d below its ceiling %d: lower the ceiling", name, n, ceiling)
		}
	}
	for name := range sizeCeilings {
		if _, ok := got[name]; !ok {
			t.Errorf("%s is gone: remove its ceiling", name)
		}
	}
}

// wallClock is what package time offers to read or wait on the real clock.
var wallClock = []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick"}

// TestNoWallClock keeps the real clock out of internal/: outside clockx, no
// non-test file there may name one of package time's wall-clock functions.
// Everything takes time from a clockx.Clock, so a manual clock drives a
// simulated run end to end and its results do not depend on the host.
// cmd/ and bench/ are exempt.
func TestNoWallClock(t *testing.T) {
	c := repoCensus(t)
	for _, f := range c.files {
		if !strings.HasPrefix(f.path, "internal/") || strings.HasPrefix(f.path, "internal/clockx/") {
			continue
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := c.info.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Type().(*types.Signature).Recv() == nil &&
				slices.Contains(wallClock, fn.Name()) {
				t.Errorf("%s: time.%s: take the time from a clockx.Clock instead", c.fset.Position(id.Pos()), fn.Name())
			}
			return true
		})
	}
}

// census is every non-test Go file of the repository (bench/ included,
// dot-directories skipped), parsed and type-checked once for the guards
// above. The examples are Example functions in example_test.go, so what
// only an example uses counts as unused. Repository packages are checked from the parsed
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
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
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
// packages the repository imports, directly or not, export, and error with
// the two method sets errors.Is, As and Unwrap call through: an error's
// Unwrap() error and Unwrap() []error, which no package declares.
func (c *census) stdInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrapper := func(result types.Type) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, []types.Type{errType}).Complete()
	}
	out := []*types.Interface{errType.Underlying().(*types.Interface), unwrapper(errType), unwrapper(types.NewSlice(errType))}
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

// internalFields names every non-embedded field of a struct type declared
// under internal/ ("pkg.Type.Field", an anonymous struct's fields named
// through the field that holds it), and reports those a json or xml tag
// names.
func (c *census) internalFields() (names map[*types.Var]string, tagged map[*types.Var]bool) {
	names, tagged = map[*types.Var]string{}, map[*types.Var]bool{}
	var collect func(prefix string, st *types.Struct)
	collect = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Embedded() {
				continue // judged through what it promotes: read wherever that is used, an interface call included
			}
			names[f] = prefix + "." + f.Name()
			_, json := reflect.StructTag(st.Tag(i)).Lookup("json")
			_, xml := reflect.StructTag(st.Tag(i)).Lookup("xml")
			if json || xml {
				tagged[f] = true
			}
			typ := f.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if inner, ok := typ.(*types.Struct); ok {
				collect(names[f], inner)
			}
		}
	}
	for _, f := range c.files {
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			if spec, ok := n.(*ast.TypeSpec); ok && !spec.Assign.IsValid() {
				if st, ok := c.info.Defs[spec.Name].Type().Underlying().(*types.Struct); ok {
					collect(f.pkg.Name()+"."+spec.Name.Name, st)
				}
			}
			return true
		})
	}
	return names, tagged
}

// fieldUses is what fieldAccess finds. written and read are as
// TestEveryFieldIsRead defines them. set holds the fields some write gives
// a value of its own, or whose address is taken; copied maps a field to
// the fields whose values writes hand it, as TestEveryReadFieldIsSet
// defines them.
type fieldUses struct {
	written, read, set map[*types.Var]bool
	copied             map[*types.Var][]*types.Var
}

// fieldAccess sorts every field selection, keyed literal element and
// reflective encoding in the census into writes and reads.
func (c *census) fieldAccess() fieldUses {
	u := fieldUses{written: map[*types.Var]bool{}, read: map[*types.Var]bool{}, set: map[*types.Var]bool{}, copied: map[*types.Var][]*types.Var{}}
	written, read := u.written, u.read
	field := func(sel *ast.SelectorExpr) *types.Var {
		if s, ok := c.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var).Origin()
		}
		return nil
	}
	// encoded marks the fields of every struct a value of typ reaches as
	// read.
	seen := map[types.Type]bool{}
	var encoded func(typ types.Type)
	encoded = func(typ types.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.Underlying().(type) {
		case *types.Pointer:
			encoded(u.Elem())
		case *types.Slice:
			encoded(u.Elem())
		case *types.Array:
			encoded(u.Elem())
		case *types.Map:
			encoded(u.Key())
			encoded(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				encoded(u.Field(i).Type())
			}
		}
	}

	// walk sorts the accesses under n. self is the expression an enclosing
	// assignment writes: x.f = g(x.f, ...) does not read x.f. wal holds
	// while the file walked is package wal's.
	var wal bool
	var walk func(n ast.Node, self string)
	// assign records that f is written with value: copied from the field
	// value selects, or set.
	assign := func(f *types.Var, value ast.Expr) {
		written[f] = true
		if sel, ok := ast.Unparen(value).(*ast.SelectorExpr); ok && field(sel) != nil {
			u.copied[f] = append(u.copied[f], field(sel))
		} else {
			u.set[f] = true
		}
	}
	// write sorts an expression in assignment position, given value: the
	// field it selects is assigned value, and a struct-valued field it is
	// reached through is set; a pointer on the way is read to be followed.
	var write func(e, value ast.Expr)
	write = func(e, value ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			write(e.X, value)
		case *ast.IndexExpr:
			write(e.X, nil)
			walk(e.Index, "")
		case *ast.SelectorExpr:
			f := field(e)
			if f == nil {
				walk(e, "")
				return
			}
			assign(f, value)
			if _, ptr := c.info.TypeOf(e.X).Underlying().(*types.Pointer); ptr {
				walk(e.X, "")
			} else {
				write(e.X, nil)
			}
		default:
			walk(e, "")
		}
	}
	walk = func(n ast.Node, self string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if len(n.Lhs) == len(n.Rhs) {
						write(lhs, n.Rhs[i])
						walk(n.Rhs[i], types.ExprString(lhs))
					} else {
						write(lhs, nil)
					}
				}
				if len(n.Lhs) != len(n.Rhs) {
					for _, rhs := range n.Rhs {
						walk(rhs, "")
					}
				}
				return false
			case *ast.IncDecStmt:
				write(n.X, nil)
				return false
			case *ast.CallExpr:
				if c.builtin(n, "delete") || c.builtin(n, "clear") {
					write(n.Args[0], nil)
					for _, arg := range n.Args[1:] {
						walk(arg, self)
					}
					return false
				}
				// Encoding reads by reflection, except that package wal's
				// records count as read only where recovery selects them.
				if fn, ok := c.callee(n).(*types.Func); ok && !wal && len(n.Args) > 0 && fn.Pkg() != nil &&
					(fn.Pkg().Path() == "encoding/json" || fn.Pkg().Path() == "encoding/xml") &&
					slices.Contains([]string{"Marshal", "MarshalIndent", "Encode", "EncodeElement"}, fn.Name()) {
					encoded(c.info.TypeOf(n.Args[0]))
				}
			case *ast.CompositeLit:
				st, _ := derefType(c.info.TypeOf(n)).(*types.Struct)
				for i, elt := range n.Elts {
					switch kv, keyed := elt.(*ast.KeyValueExpr); {
					case st == nil:
						walk(elt, self)
					case keyed:
						assign(c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin(), kv.Value)
						walk(kv.Value, self)
					default:
						assign(st.Field(i).Origin(), elt)
						walk(elt, self)
					}
				}
				return false
			case *ast.UnaryExpr:
				// &x.f hands the field to code that may set it.
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND && field(sel) != nil {
					u.set[field(sel)] = true
				}
			case *ast.SelectorExpr:
				if f := field(n); f != nil && self != "" && types.ExprString(n) == self {
					write(n, nil)
					return false
				} else if f != nil {
					read[f] = true
				}
			}
			return true
		})
	}
	for _, f := range c.files {
		wal = f.pkg.Name() == "wal"
		walk(f.file, "")
	}
	return u
}

// builtin reports whether call calls the named builtin function.
func (c *census) builtin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == name && c.info.Uses[id] == types.Universe.Lookup(name)
}

// callee returns the object a call names, or nil.
func (c *census) callee(call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return c.info.Uses[fun]
	case *ast.SelectorExpr:
		return c.info.Uses[fun.Sel]
	}
	return nil
}

// derefType returns the underlying type, behind one pointer if typ is one.
func derefType(typ types.Type) types.Type {
	if ptr, ok := typ.Underlying().(*types.Pointer); ok {
		return ptr.Elem().Underlying()
	}
	return typ.Underlying()
}

// qualified renders a declaration as pkg.Name, a method as pkg.Recv.Name.
func qualified(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		typ := sig.Recv().Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		name += typ.(*types.Named).Obj().Name() + "."
	}
	return name + obj.Name()
}
