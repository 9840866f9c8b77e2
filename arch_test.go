package djstar

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The architecture rules of DESIGN.md, as one table over the type-checked
// tree. Each row names its rule and section, checks resolved objects
// (uses, implementations, import edges) rather than text, and carries
// fixtures under testdata/arch/ that are overlaid onto the real tree and
// must be rejected, so every rule's mutation check runs with the suite.
//
// A new rule is one row plus one fixture directory.

// archRow is one rule.
type archRow struct {
	name, rule, design string
	check              func(tr *archTree) []string
	// fixtures are directories under testdata/arch/; each is overlaid
	// on its own and the row must report a finding.
	fixtures []string
}

var archRows = []archRow{
	{"Routes", "engine.MountSessionRoutes is the one place a per-session /v1 route is registered", "§19",
		archRoutes, []string{"routes"}},
	{"Lifecycles", "two executor lifecycles: the policy skeleton (core) and PoolSession", "§8, §22",
		archLifecycles, []string{"lifecycles"}},
	{"Account", "engine.Metrics' zero value is the constructor, and the engine keeps no summary beside its totals", "§23",
		archAccount, []string{"account-summary", "account-runcycles"}},
	{"Clock", "one clock (graph/nanos.go), one engine ticker, one paced loop that fleet drivers run through", "§30",
		archClock, []string{"clock-now", "clock-alias", "clock-ticker", "clock-driver"}},
	{"Admission", "cross-session admission is decided by the fleet alone", "§27",
		archAdmission, []string{"admission"}},
	{"Observer", "obs.Collector is the one implementation of sched.Observer", "§28",
		archObserver, []string{"observer", "observer-renamed"}},
	{"WorkModel", "node costs and longest paths are decided in graph; shedding goes through NodeKind.ShedAt", "§13, §28",
		archWorkModel, []string{"workmodel-cost", "workmodel-adjacency", "workmodel-sweep",
			"workmodel-sweep-field", "workmodel-sweep-conv", "workmodel-kind"}},
	{"Exp", "only cmd/djbench imports the experiment harness", "§26",
		archExp, []string{"exp"}},
	{"CodeBudget", fmt.Sprintf("non-test Go under internal/, cmd/ and examples/ stays within %d lines", archCodeBudget), "§19",
		archCodeLines, []string{"codebudget"}},
	{"DocBudget", fmt.Sprintf("DESIGN.md plus EXPERIMENTS.md stay within %d lines", archDocBudget), "§19",
		archDocLines, []string{"docbudget"}},
	{"Export", "every exported identifier under internal/ has a non-test user in the module or in bench/", "§19",
		archExport, []string{"export"}},
	{"Knobs", "every exported field of an exported struct under internal/ is written by non-test code outside its package's defaulting functions", "§19",
		archKnobs, []string{"knobs"}},
}

// The line budgets: a change that grows either total must delete
// elsewhere, or name the new budget in CHANGES.md.
const (
	archCodeBudget = 19385
	archDocBudget  = 4267
)

func TestArch(t *testing.T) {
	tr := loadArch(t)
	for _, row := range archRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			for _, f := range row.check(tr) {
				t.Errorf("%s (DESIGN.md %s): %s", row.rule, row.design, f)
			}
			for _, fx := range row.fixtures {
				fx := fx
				t.Run("rejects/"+fx, func(t *testing.T) {
					if len(row.check(tr.overlay(t, fx))) == 0 {
						t.Errorf("the row accepts testdata/arch/%s", fx)
					}
				})
			}
		})
	}
}

// archPkg is one type-checked package: its non-test files that match
// the host's build constraints.
type archPkg struct {
	path, dir string
	files     []*ast.File
	pkg       *types.Package
	info      *types.Info
	// uses maps archKey of every used object to where it is used.
	uses map[string][]token.Pos
}

// archTree is the loaded tree: internal/, cmd/ and examples/ as module
// djstar, and bench/ as djstar/bench.
type archTree struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*archPkg
	// all holds every .go file parsed, test files and files of other
	// build constraints included, for the rules that read syntax only.
	all []*ast.File
	// codeLines counts non-test .go lines under internal/, cmd/ and
	// examples/, every build constraint included.
	codeLines int
	docLines  map[string]int
}

var archRoots = []string{"internal", "cmd", "examples", "bench"}

var (
	archOnce sync.Once
	archBase *archTree
	archErr  error
)

func loadArch(t *testing.T) *archTree {
	t.Helper()
	archOnce.Do(func() { archBase, archErr = loadArchTree() })
	if archErr != nil {
		t.Fatal(archErr)
	}
	return archBase
}

func loadArchTree() (*archTree, error) {
	tr := &archTree{fset: token.NewFileSet(), pkgs: map[string]*archPkg{}, docLines: map[string]int{}}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		if err := tr.addDoc(doc, doc); err != nil {
			return nil, err
		}
	}
	roots, err := filepath.Glob("*_test.go")
	if err != nil {
		return nil, err
	}
	for _, f := range roots {
		if err := tr.addGo(f, f); err != nil {
			return nil, err
		}
	}
	for _, root := range archRoots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if n := d.Name(); p != root && (n == "testdata" || n == "out" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			return tr.addGo(filepath.ToSlash(p), p)
		})
		if err != nil {
			return nil, err
		}
	}
	std, err := archStdImporter(tr)
	if err != nil {
		return nil, err
	}
	tr.std = std
	return tr, tr.checkAll()
}

// archStdImporter reads the standard library from the compiler's export
// data, located by one "go list -export" over every standard package the
// tree imports (importer.Default runs one per package).
func archStdImporter(tr *archTree) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	seen := map[string]bool{}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				if !seen[ip] && ip != "djstar" && !strings.HasPrefix(ip, "djstar/") {
					seen[ip] = true
					args = append(args, ip)
				}
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if ee, ok := err.(*exec.ExitError); ok {
		return nil, fmt.Errorf("arch: go list -export: %w: %s", err, ee.Stderr)
	} else if err != nil {
		return nil, fmt.Errorf("arch: go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, file, _ := strings.Cut(line, "=")
		export[ip] = file
	}
	return importer.ForCompiler(tr.fset, "gc", func(ip string) (io.ReadCloser, error) {
		if export[ip] == "" {
			return nil, fmt.Errorf("arch: no export data for %q", ip)
		}
		return os.Open(export[ip])
	}), nil
}

// addGo parses the Go file read from disk at from as tree path rel.
func (tr *archTree) addGo(rel, from string) error {
	src, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	dir, name := path.Dir(rel), path.Base(rel)
	test := strings.HasSuffix(name, "_test.go")
	if !test && archUnder(dir, "internal", "cmd", "examples") {
		tr.codeLines += strings.Count(string(src), "\n")
	}
	f, err := parser.ParseFile(tr.fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	tr.all = append(tr.all, f)
	if test || dir == "." {
		return nil
	}
	if ok, err := build.Default.MatchFile(filepath.Dir(from), filepath.Base(from)); err != nil || !ok {
		return err
	}
	ip := "djstar/" + dir
	p := tr.pkgs[ip]
	if p == nil {
		p = &archPkg{path: ip, dir: dir}
		tr.pkgs[ip] = p
	}
	p.files = append(p.files, f)
	return nil
}

// addDoc adds the lines of the document read from disk at from to tree
// document rel.
func (tr *archTree) addDoc(rel, from string) error {
	src, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	tr.docLines[rel] += strings.Count(string(src), "\n")
	return nil
}

// checkAll type-checks every package not yet checked, in import order.
// Any parse or type error, or an import that resolves to nothing, fails
// the load: no rule ever runs on a partial tree.
func (tr *archTree) checkAll() error {
	im := &archImporter{tr: tr, busy: map[string]bool{}}
	for _, p := range tr.sorted() {
		if _, err := im.Import(p.path); err != nil {
			return err
		}
	}
	return nil
}

type archImporter struct {
	tr   *archTree
	busy map[string]bool
}

func (im *archImporter) Import(ip string) (*types.Package, error) {
	if ip != "djstar" && !strings.HasPrefix(ip, "djstar/") {
		return im.tr.std.Import(ip)
	}
	p := im.tr.pkgs[ip]
	if p == nil {
		return nil, fmt.Errorf("arch: import %q resolves to no loaded package", ip)
	}
	if p.pkg != nil {
		return p.pkg, nil
	}
	if im.busy[ip] {
		return nil, fmt.Errorf("arch: import cycle through %s", ip)
	}
	im.busy[ip] = true
	p.info = &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(ip, im.tr.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("arch: type-check %s: %w", ip, err)
	}
	p.pkg = pkg
	p.uses = map[string][]token.Pos{}
	for id, obj := range p.info.Uses {
		if k := archKey(obj); k != "" {
			p.uses[k] = append(p.uses[k], id.Pos())
		}
	}
	return pkg, nil
}

// overlay returns the tree with fixture directory testdata/arch/name laid
// over it: a Go file joins the package of its directory (a test file is
// parsed only), and a Markdown file's lines are added to the document of
// the same name, as a change that lengthens it would. Only the packages
// a fixture touches are checked again; the rest are shared. A fixture
// may import only standard packages the tree already imports.
func (tr *archTree) overlay(t *testing.T, name string) *archTree {
	t.Helper()
	o := &archTree{fset: tr.fset, std: tr.std, pkgs: map[string]*archPkg{},
		all: tr.all[:len(tr.all):len(tr.all)], codeLines: tr.codeLines, docLines: map[string]int{}}
	for k, v := range tr.docLines {
		o.docLines[k] = v
	}
	for k, p := range tr.pkgs {
		o.pkgs[k] = p
	}
	root := filepath.Join("testdata", "arch", name)
	touched := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasSuffix(rel, ".md") {
			return o.addDoc(rel, p)
		}
		if _, err := os.Stat(rel); err == nil {
			return fmt.Errorf("fixture %s shadows a file of the tree", p)
		}
		dir := path.Dir(rel)
		ip := "djstar/" + dir
		if b := o.pkgs[ip]; b != nil && !touched[ip] {
			o.pkgs[ip] = &archPkg{path: ip, dir: dir, files: b.files[:len(b.files):len(b.files)]}
		}
		touched[ip] = true
		return o.addGo(rel, p)
	})
	if err == nil {
		err = o.checkAll()
	}
	if err != nil {
		t.Fatalf("overlay %s: %v", name, err)
	}
	return o
}

func (tr *archTree) sorted() []*archPkg {
	out := make([]*archPkg, 0, len(tr.pkgs))
	for _, p := range tr.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// in returns the loaded packages under the given directories.
func (tr *archTree) in(dirs ...string) []*archPkg {
	var out []*archPkg
	for _, p := range tr.sorted() {
		if archUnder(p.dir, dirs...) {
			out = append(out, p)
		}
	}
	return out
}

func archUnder(dir string, roots ...string) bool {
	for _, r := range roots {
		if dir == r || strings.HasPrefix(dir, r+"/") {
			return true
		}
	}
	return false
}

func (tr *archTree) at(pos token.Pos) string {
	p := tr.fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// archKey names an object independently of the check that produced it,
// so a package checked again under an overlay still matches its users:
// "path.Name" for a package-level object, "path.Type.Method" for a
// method. Generic methods are named by their origin. Fields, locals,
// labels and universe objects have no key.
func archKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			return f.Pkg().Path() + "." + archTypeName(recv.Type()) + "." + f.Name()
		}
		return f.Pkg().Path() + "." + f.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func archTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// usesOf returns where the packages use the objects named by keys.
func (tr *archTree) usesOf(pkgs []*archPkg, keys ...string) []token.Pos {
	var out []token.Pos
	for _, p := range pkgs {
		for _, k := range keys {
			out = append(out, p.uses[k]...)
		}
	}
	return out
}

// funcAt returns the archKey of the top-level function declaring pos in
// package p, "" if pos is outside every function.
func (p *archPkg) funcAt(pos token.Pos) string {
	for _, f := range p.files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
				return archKey(p.info.Defs[fd.Name])
			}
		}
	}
	return ""
}

// constStrings calls fn for every constant string expression in p.
func (p *archPkg) constStrings(fn func(e ast.Expr, s string)) {
	for e, tv := range p.info.Types {
		if tv.Value != nil && tv.Value.Kind() == constant.String {
			fn(e, constant.StringVal(tv.Value))
		}
	}
}

func archSorted(out []string) []string {
	sort.Strings(out)
	return out
}

const (
	engineP = "djstar/internal/engine"
	graphP  = "djstar/internal/graph"
	schedP  = "djstar/internal/sched"
)

var archSessionRoute = regexp.MustCompile(`^[A-Z]+ /v1/sessions/\{id\}/`)

func archRoutes(tr *archTree) []string {
	var out []string
	for _, p := range tr.sorted() {
		p.constStrings(func(e ast.Expr, s string) {
			if archSessionRoute.MatchString(s) && p.funcAt(e.Pos()) != engineP+".MountSessionRoutes" {
				out = append(out, fmt.Sprintf("%s: route %q outside engine.MountSessionRoutes", tr.at(e.Pos()), s))
			}
		})
	}
	return archSorted(out)
}

func archLifecycles(tr *archTree) []string {
	var out []string
	for _, s := range []string{"sched: Execute called after Close", "sched: StageSwap after Close"} {
		seen := map[string]bool{}
		for _, p := range tr.sorted() {
			p.constStrings(func(e ast.Expr, v string) {
				if v != s {
					return
				}
				fn := p.funcAt(e.Pos())
				recv := fn[:max(strings.LastIndex(fn, "."), 0)]
				seen[recv] = true
				if recv != schedP+".core" && recv != schedP+".PoolSession" {
					out = append(out, fmt.Sprintf("%s: %q in %s, a third lifecycle", tr.at(e.Pos()), s, fn))
				}
			})
		}
		for _, want := range []string{schedP + ".core", schedP + ".PoolSession"} {
			if !seen[want] {
				out = append(out, fmt.Sprintf("%s no longer carries %q", want, s))
			}
		}
	}
	return archSorted(out)
}

func archAccount(tr *archTree) []string {
	var out []string
	// Parse level, over every .go file, tests included.
	for _, f := range tr.all {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			name := ""
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && name == "RunCycles" && lit.Value == "0" {
				out = append(out, fmt.Sprintf("%s: RunCycles(0) used as a Metrics constructor: write &engine.Metrics{}", tr.at(call.Pos())))
			}
			return true
		})
	}
	for _, pos := range tr.usesOf(tr.in("internal/engine"), "djstar/internal/stats.Summary", "djstar/internal/stats.NewSummary") {
		out = append(out, fmt.Sprintf("%s: internal/engine accumulates cycle times outside engine.Metrics", tr.at(pos)))
	}
	return archSorted(out)
}

func archClock(tr *archTree) []string {
	var out []string
	for _, p := range tr.in("internal") {
		for _, pos := range tr.usesOf([]*archPkg{p}, "time.Now", "time.Since", "time.Until", "time.Sleep") {
			// The stall fault burns wall time on purpose, and graph
			// imports faults, so it keeps its own busy-wait.
			if f := tr.fset.Position(pos).Filename; f != "internal/graph/nanos.go" && f != "internal/faults/faults.go" {
				out = append(out, fmt.Sprintf("%s: reads the clock or sleeps outside graph/nanos.go: pass graph.NowNanos() in", tr.at(pos)))
			}
		}
	}
	if tickers := tr.usesOf(tr.in("internal/engine"), "time.NewTicker"); len(tickers) != 1 {
		out = append(out, fmt.Sprintf("internal/engine uses time.NewTicker %d times, want 1 (the engine monitor)", len(tickers)))
	}
	fleet := tr.in("internal/fleet")
	if len(tr.usesOf(fleet, engineP+".Engine.RunRealtime")) == 0 {
		out = append(out, "internal/fleet does not drive its sessions through Engine.RunRealtime")
	}
	for _, pos := range tr.usesOf(fleet, engineP+".Engine.Cycle", engineP+".Engine.RunCycles") {
		out = append(out, fmt.Sprintf("%s: internal/fleet cycles an engine outside Engine.RunRealtime", tr.at(pos)))
	}
	return archSorted(out)
}

func archAdmission(tr *archTree) []string {
	var out []string
	for _, p := range tr.in("internal/engine") {
		for k, ps := range p.uses {
			if k == "djstar/internal/admission.Controller" || k == "djstar/internal/admission.NewController" ||
				strings.HasPrefix(k, "djstar/internal/admission.Controller.") {
				for _, pos := range ps {
					out = append(out, fmt.Sprintf("%s: internal/engine names admission.Controller: shared-pool admission belongs to internal/fleet", tr.at(pos)))
				}
			}
		}
	}
	return archSorted(out)
}

func archObserver(tr *archTree) []string {
	iface := tr.pkgs[schedP].pkg.Scope().Lookup("Observer").Type().Underlying().(*types.Interface)
	record := iface.Method(0)
	for i := 0; record.Name() != "Record"; i++ {
		record = iface.Method(i)
	}
	var out []string
	for _, p := range tr.sorted() {
		for id, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) || archKey(tn) == "djstar/internal/obs.Collector" {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			pt := types.NewPointer(tn.Type())
			m, _, _ := types.LookupFieldOrMethod(pt, false, nil, "Record")
			if types.Implements(pt, iface) || m != nil && types.Identical(m.Type(), record.Type()) {
				out = append(out, fmt.Sprintf("%s: %s records node windows beside obs.Collector", tr.at(id.Pos()), tn.Name()))
			}
		}
	}
	return archSorted(out)
}

// archSweepExempt is the one sweep over predecessors outside graph that
// is not a longest path: list scheduling picks a processor between the
// predecessors' finish and the node's own, so its finish times are a
// contended schedule, not a path length.
const archSweepExempt = "djstar/internal/rescon.Model.ListSchedule"

func archWorkModel(tr *archTree) []string {
	var out []string
	add := func(pos token.Pos, format string, args ...any) {
		out = append(out, tr.at(pos)+": "+fmt.Sprintf(format, args...))
	}
	// Design costs live on the node; rescon reads them from the plan and
	// keys nothing by name.
	for _, p := range tr.in("internal/rescon") {
		for k, ps := range p.uses {
			if rest, ok := strings.CutPrefix(k, graphP+".Cost"); ok && rest != "" && !strings.Contains(rest, ".") {
				for _, pos := range ps {
					add(pos, "internal/rescon maps node names to costs: read the plan's design costs")
				}
			}
		}
		for _, pos := range tr.usesOf([]*archPkg{p}, "strings.HasPrefix", "strings.HasSuffix", "strings.Contains", "strings.EqualFold") {
			add(pos, "internal/rescon matches names")
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
					for _, e := range []ast.Expr{b.X, b.Y} {
						if tv := p.info.Types[e]; tv.Value != nil && tv.Value.Kind() == constant.String {
							add(b.Pos(), "internal/rescon compares a name with a constant")
						}
					}
				}
				return true
			})
		}
		// rescon.Model reads the plan's CSR adjacency and copies none.
		for _, pos := range tr.usesOf([]*archPkg{p}, graphP+".Plan.PredLists", graphP+".Plan.SuccLists") {
			add(pos, "internal/rescon copies the plan's adjacency")
		}
	}
	// Every cost-weighted longest path is graph's UpwardRank,
	// EarliestFinish or ListFinish.
	for _, p := range tr.in("internal", "cmd", "examples") {
		if p.dir == "internal/graph" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || archKey(p.info.Defs[fd.Name]) == archSweepExempt {
					continue
				}
				if pos, ok := archSweep(p, fd.Body); ok {
					add(pos, "cost-weighted longest-path sweep outside internal/graph: use Plan.UpwardRank / EarliestFinish / ListFinish")
				}
			}
		}
	}
	// The governor's levels and the admission ladder's rungs shed by one
	// kind→rung rule.
	for _, p := range tr.in("internal/engine", "internal/admission") {
		for id, obj := range p.info.Uses {
			if c, ok := obj.(*types.Const); ok {
				if n, ok := c.Type().(*types.Named); ok && archKey(n.Obj()) == graphP+".NodeKind" {
					add(id.Pos(), "switches on node kinds: shed through graph.NodeKind.ShedAt")
				}
			}
		}
	}
	return archSorted(out)
}

// archSweep reports a range over a plan's PredsOf or SuccsOf in body
// when the same function assigns a node's value a sum with a per-node
// cost (an indexed element set to a sum with a bracketed operand).
func archSweep(p *archPkg, body *ast.BlockStmt) (token.Pos, bool) {
	var at token.Pos
	sums := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && at == 0 {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if k := archKey(p.info.Uses[sel.Sel]); k == graphP+".Plan.PredsOf" || k == graphP+".Plan.SuccsOf" {
						at = n.Pos()
					}
				}
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if _, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
					for _, r := range n.Rhs {
						sums = sums || archIndexedSum(r)
					}
				}
			}
		}
		return true
	})
	return at, at != 0 && sums
}

// archIndexedSum reports whether e holds a sum with an operand that
// indexes, slices or spells an array or map type anywhere inside it:
// ready + cost[id], ready + p.Costs[id].BaseUS, ready + float64(c[id]).
func archIndexedSum(e ast.Expr) bool {
	sum := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.ADD && (archBracketed(b.X) || archBracketed(b.Y)) {
			sum = true
		}
		return !sum
	})
	return sum
}

func archBracketed(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.IndexExpr, *ast.IndexListExpr, *ast.SliceExpr, *ast.ArrayType, *ast.MapType:
			found = true
		}
		return !found
	})
	return found
}

func archExp(tr *archTree) []string {
	var out []string
	for _, p := range tr.sorted() {
		if p.path == "djstar/cmd/djbench" {
			continue
		}
		for _, im := range p.pkg.Imports() {
			if im.Path() == "djstar/internal/exp" {
				out = append(out, fmt.Sprintf("%s imports djstar/internal/exp: calibrate with graph.Calibrate directly", p.path))
			}
		}
	}
	return out
}

func archCodeLines(tr *archTree) []string {
	if tr.codeLines > archCodeBudget {
		return []string{fmt.Sprintf("non-test Go lines: %d, over the budget by %d", tr.codeLines, tr.codeLines-archCodeBudget)}
	}
	return nil
}

func archDocLines(tr *archTree) []string {
	if n := tr.docLines["DESIGN.md"] + tr.docLines["EXPERIMENTS.md"]; n > archDocBudget {
		return []string{fmt.Sprintf("DESIGN.md + EXPERIMENTS.md lines: %d, over the budget by %d", n, n-archDocBudget)}
	}
	return nil
}

// archExportAllowed are the exports a test must drive or observe
// behaviour through, each with its reason. An entry that gains a
// non-test user, or no longer exists, is itself a finding.
var archExportAllowed = map[string]string{
	"djstar/internal/deck.Deck.Pause":                "the paused-deck audio hash and the silence sweep stop a deck through it",
	"djstar/internal/deck.Deck.Seek":                 "the deck and timecode oracles start the playhead mid-track through it",
	"djstar/internal/dsp.DelayLine.Read":             "the kernels' reference forms read the history tap by tap through it",
	"djstar/internal/dsp.Rectangular":                "an enum's zero value: code gets it by leaving the field unset, tests name it",
	"djstar/internal/effects.Effect.Reset":           "TestResetRestoresSilence clears every unit through the interface",
	"djstar/internal/engine.Engine.ApplyEdits":       "the edit tests stage raw edit sets, refused at validation or at the swap, that no patch spec expresses",
	"djstar/internal/engine.Engine.Graph":            "the rebind and edit tests observe the live topology through it",
	"djstar/internal/engine.Engine.LastEdit":         "the edit and admission tests observe each edit's outcome through it",
	"djstar/internal/engine.Engine.RefreshAdmission": "the admission tests re-run the gate on demand through it",
	"djstar/internal/graph.ExecTrace.Check":          "test support: tests in every executor package check the order RandomDAG's nodes ran in",
	"djstar/internal/graph.ExecTrace.Reset":          "test support: tests in every executor package reuse one trace across cycles",
	"djstar/internal/graph.Session.Cycles":           "the engine and fleet tests observe that the GP stage ran through it",
	"djstar/internal/graph.Session.MonitorOut":       "the golden audio hash and the graph silence sweep observe the monitor bus through it",
	"djstar/internal/mixer.CrossfadeThru":            "an enum's zero value: code gets it by leaving the field unset, tests name it",
	"djstar/internal/mixer.VUMeter.Levels":           "the mixer tests and silence sweep observe the meter through it",
	"djstar/internal/obs.Sink.Totals":                "the sink and engine tests observe the sink's counters through it",
	"djstar/internal/sched.FaultState.Shed":          "the conformance, rebind, governor and edit tests observe shed bits through it",
	"djstar/internal/synth.Sine":                     "an enum's zero value: code gets it by leaving the field unset, tests name it",
}

// archExportPkgs are whole packages whose exports serve tests.
var archExportPkgs = map[string]string{
	"djstar/internal/dsp/dsptest": "test support: the kernels' silence sweeps",
}

func archExport(tr *archTree) []string {
	used := map[string]bool{}
	for _, p := range tr.sorted() {
		for k := range p.uses {
			used[k] = true
		}
	}
	// A method is used when a type whose method set holds it, embedded
	// or declared, implements an interface of the program or of the
	// standard library that names it.
	ifaces := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var named []types.Type
	var collect func(pkg *types.Package)
	collect = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			} else if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && tr.pkgs[pkg.Path()] != nil {
				named = append(named, n)
			}
		}
		for _, im := range pkg.Imports() {
			collect(im)
		}
	}
	for _, p := range tr.sorted() {
		collect(p.pkg)
		// Generic types are checked through the instances the program makes.
		for _, inst := range p.info.Instances {
			if n, ok := inst.Type.(*types.Named); ok && n.Origin() != n && !types.IsInterface(n) {
				named = append(named, n)
			}
		}
	}
	for _, t := range named {
		pt := types.NewPointer(t)
		ms := types.NewMethodSet(pt)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			for _, it := range ifaces[m.Name()] {
				if types.Implements(pt, it) {
					used[archKey(m)] = true
					break
				}
			}
		}
	}

	var out []string
	allowed := map[string]bool{}
	report := func(obj types.Object) {
		k := archKey(obj)
		if archExportAllowed[k] != "" {
			allowed[k] = true
			if used[k] {
				out = append(out, fmt.Sprintf("%s: %s is allowlisted but has a non-test user", tr.at(obj.Pos()), k))
			}
		} else if !used[k] {
			out = append(out, fmt.Sprintf("%s: %s has no non-test user: delete it, or allowlist it with the reason a test needs it",
				tr.at(obj.Pos()), strings.TrimPrefix(k, "djstar/internal/")))
		}
	}
	for _, p := range tr.in("internal") {
		if archExportPkgs[p.path] != "" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() {
						report(m)
					}
				}
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					report(m)
				}
			}
		}
	}
	for k := range archExportAllowed {
		if !allowed[k] {
			out = append(out, fmt.Sprintf("%s is allowlisted but no longer declared", k))
		}
	}
	return archSorted(out)
}

// archKnobAllowed are the settings only a test writes, each with its
// reason, keyed "path.Type.Field". An entry that gains a non-test
// writer, or no longer exists, is itself a finding.
var archKnobAllowed = map[string]string{
	"djstar/internal/admission.Config.Margin":              "the admission tests judge at margin 1 and the perf suite at 1.5, until a measured bound replaces the margin (ROADMAP item 12)",
	"djstar/internal/admission.Config.Overheads":           "an engine admission test shrinks the check and wake charges to near zero, until measured overhead terms replace them (ROADMAP item 1(c))",
	"djstar/internal/engine.AdmissionOptions.PredictEvery": "the admission alloc tests switch the monitor off, so AllocsPerRun counts only the cycle thread",
	"djstar/internal/engine.TelemetryOptions.SLO":          "the incident tests keep the timing-dependent budget trigger off their one expected dump",
	"djstar/internal/graph.Config.FXPerDeck":               "the silence sweep takes the FX tails out of the graph",
	"djstar/internal/obs.SLOConfig.TargetPer10k":           "the incident tests keep the timing-dependent budget trigger off their one expected dump",
	"djstar/internal/obs.SLOConfig.WindowCycles":           "the sink tests use short windows",
}

// archKnobPkgs are whole packages whose fields are written outside the
// program's code.
var archKnobPkgs = map[string]string{
	"djstar/internal/apiv1":       "wire types: json.Decode fills them",
	"djstar/internal/dsp/dsptest": "test support: the kernels' silence sweeps",
}

// archKnobDefaulting are the functions that fill a package's own zero
// settings; a write there picks no value.
var archKnobDefaulting = map[string]bool{"withDefaults": true, "WithDefaults": true, "normalize": true, "DefaultConfig": true}

func archKnobs(tr *archTree) []string {
	// Fields are keyed by their declaration's position, which a package
	// checked again under an overlay shares with its original.
	knobs := map[token.Pos]string{}
	for _, p := range tr.in("internal") {
		if archKnobPkgs[p.path] != "" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						knobs[f.Pos()] = p.path + "." + name + "." + f.Name()
					}
				}
			}
		}
	}
	written := map[string]bool{}
	for _, p := range tr.sorted() {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				own := fd != nil && archKnobDefaulting[fd.Name.Name]
				write := func(id *ast.Ident) {
					if obj := p.info.Uses[id]; obj != nil {
						if k := knobs[obj.Pos()]; k != "" && !(own && obj.Pkg().Path() == p.path) {
							written[k] = true
						}
					}
				}
				// chain writes the field an lvalue selects and every
				// field it selects through.
				chain := func(e ast.Expr) {
					for e != nil {
						switch x := e.(type) {
						case *ast.SelectorExpr:
							write(x.Sel)
							e = x.X
						case *ast.IndexExpr:
							e = x.X
						case *ast.ParenExpr:
							e = x.X
						case *ast.StarExpr:
							e = x.X
						default:
							e = nil
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, l := range n.Lhs {
							chain(l)
						}
					case *ast.IncDecStmt:
						chain(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							chain(n.X)
						}
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							write(id)
						}
					case *ast.SelectorExpr:
						// A pointer method on an addressable value takes
						// its address.
						m, ok := p.info.Uses[n.Sel].(*types.Func)
						if !ok {
							break
						}
						recv := m.Type().(*types.Signature).Recv()
						if _, ptr := p.info.Types[n.X].Type.(*types.Pointer); recv != nil && !ptr {
							if _, ok := recv.Type().(*types.Pointer); ok {
								chain(n.X)
							}
						}
					}
					return true
				})
			}
		}
	}
	var out []string
	for pos, k := range knobs {
		if archKnobAllowed[k] != "" {
			if written[k] {
				out = append(out, fmt.Sprintf("%s: %s is allowlisted but a program writes it", tr.at(pos), k))
			}
		} else if !written[k] {
			out = append(out, fmt.Sprintf("%s: %s is a setting no program writes: make it a constant, or allowlist it with the reason a test needs it",
				tr.at(pos), strings.TrimPrefix(k, "djstar/internal/")))
		}
	}
	declared := map[string]bool{}
	for _, k := range knobs {
		declared[k] = true
	}
	for k := range archKnobAllowed {
		if !declared[k] {
			out = append(out, fmt.Sprintf("%s is allowlisted but no longer declared", k))
		}
	}
	return archSorted(out)
}
