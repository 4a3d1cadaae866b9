// Package obslint replaces the grep-based docs lint with AST-level
// truth: every obs metric registered in code must follow the naming
// scheme and be documented in OPERATIONS.md, every sketchd flag must
// be documented in OPERATIONS.md or QUERIES.md, and every
// query-language keyword must appear in QUERIES.md.
//
// Metric registrations are calls to Counter/Gauge/Histogram/
// CounterFunc/GaugeFunc on an obs.Registry. The series name is
// resolved statically: a constant string, the first argument of an
// obs.Label(...) call, or — where grep could never follow — an
// identifier bound by ranging over a map composite literal with
// constant string keys (the estimator_* registration loop), including
// through `name := name` rebinding.
//
// Scheme: names are lowercase snake_case with a known subsystem
// prefix; counters end in _total, histograms in _seconds, and gauges
// must not end in _total.
//
// Flags are fs.String/Bool/... registrations in package main under a
// directory named sketchd; each must appear as `-name` in
// OPERATIONS.md or QUERIES.md. Keywords are ALL-CAPS string
// literals in packages cq and expr; each must appear in QUERIES.md.
package obslint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"setsketch/internal/analysis"
)

// Analyzer is the obslint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "obslint",
	Doc:  "check metric/flag/keyword naming and documentation coverage",
	Run:  run,
}

// registryMethods maps registration method name -> metric kind.
var registryMethods = map[string]string{
	"Counter":     "counter",
	"CounterFunc": "counter",
	"Gauge":       "gauge",
	"GaugeFunc":   "gauge",
	"Histogram":   "histogram",
}

// prefixes are the documented metric subsystems (OPERATIONS.md
// sections).
var prefixes = map[string]bool{
	"ingest": true, "stream": true, "coord": true, "watch": true,
	"cq": true, "estimator": true, "wal": true, "process": true,
	"estimate": true,
}

var (
	nameRe    = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	keywordRe = regexp.MustCompile(`^[A-Z]{2,}$`)
)

// flagCheckedDir is the command directory whose flags must be
// documented: the operator-facing daemon.
const flagCheckedDir = "sketchd"

// flagMethods are the *flag.FlagSet registration methods whose first
// argument is the flag name.
var flagMethods = map[string]bool{
	"String": true, "Bool": true, "Int": true, "Int64": true,
	"Uint": true, "Uint64": true, "Float64": true, "Duration": true,
}

func run(pass *analysis.Pass) error {
	docs := newDocSet(pass.ModDir)
	checkMetrics(pass, docs)
	if pass.Pkg.Name() == "main" && filepath.Base(pass.Dir) == flagCheckedDir {
		checkFlags(pass, docs)
	}
	if name := pass.Pkg.Name(); name == "cq" || name == "expr" {
		checkKeywords(pass, docs)
	}
	return nil
}

// docSet lazily loads the documentation files named by the checks.
type docSet struct {
	modDir string
	files  map[string]string // basename -> contents ("" = missing)
}

func newDocSet(modDir string) *docSet {
	return &docSet{modDir: modDir, files: make(map[string]string)}
}

func (d *docSet) contains(basename, needle string) bool {
	text, ok := d.files[basename]
	if !ok {
		b, err := os.ReadFile(filepath.Join(d.modDir, basename))
		if err != nil {
			b = nil
		}
		text = string(b)
		d.files[basename] = text
	}
	return strings.Contains(text, needle)
}

func checkMetrics(pass *analysis.Pass, docs *docSet) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, ok := registryMethods[sel.Sel.Name]
			if !ok || len(call.Args) == 0 || !isRegistryMethod(pass, sel) {
				return true
			}
			names, resolved := metricNames(pass, call.Args[0])
			if !resolved {
				pass.Reportf(call.Args[0].Pos(),
					"metric name is not statically resolvable; use a constant, obs.Label, or a map-literal registration loop")
				return true
			}
			for _, name := range names {
				checkMetricName(pass, call.Args[0].Pos(), kind, name, docs)
			}
			return true
		})
	}
}

// isRegistryMethod reports whether sel names a method of obs.Registry.
func isRegistryMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}

func checkMetricName(pass *analysis.Pass, pos token.Pos, kind, name string, docs *docSet) {
	if !nameRe.MatchString(name) {
		pass.Reportf(pos, "metric %q is not lowercase snake_case", name)
		return
	}
	prefix, _, _ := strings.Cut(name, "_")
	if !prefixes[prefix] {
		pass.Reportf(pos, "metric %q has unknown subsystem prefix %q (known: ingest stream coord watch cq estimator wal process estimate)", name, prefix)
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "counter %q must end in _total", name)
			return
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") {
			pass.Reportf(pos, "histogram %q must end in _seconds", name)
			return
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "gauge %q must not end in _total (that suffix marks counters)", name)
			return
		}
	}
	if !docs.contains("OPERATIONS.md", name) {
		pass.Reportf(pos, "metric %q is not documented in OPERATIONS.md", name)
	}
}

// metricNames statically resolves the series-name argument to one or
// more names.
func metricNames(pass *analysis.Pass, arg ast.Expr) ([]string, bool) {
	if s, ok := constString(pass, arg); ok {
		return []string{s}, true
	}
	// obs.Label(base, kv...): the base name is what the scheme and the
	// docs key on.
	if call, ok := arg.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Label" && len(call.Args) > 0 {
			if s, ok := constString(pass, call.Args[0]); ok {
				return []string{s}, true
			}
		}
		return nil, false
	}
	// Identifier: follow `x := y` rebinding, then a range over a map
	// composite literal with constant keys.
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := pass.TypesInfo.Uses[id]
	for i := 0; i < 4 && obj != nil; i++ {
		if keys, ok := rangeKeyNames(pass, obj); ok {
			return keys, true
		}
		next, ok := rebindSource(pass, obj)
		if !ok {
			break
		}
		obj = next
	}
	return nil, false
}

func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// rebindSource resolves `x := y` (single ident to single ident) to y's
// object — the `name := name` loop-shadow idiom.
func rebindSource(pass *analysis.Pass, obj types.Object) (types.Object, bool) {
	var out types.Object
	found := false
	forEachNode(pass, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok || pass.TypesInfo.Defs[lhs] != obj {
			return true
		}
		if rhs, ok := as.Rhs[0].(*ast.Ident); ok {
			out = pass.TypesInfo.Uses[rhs]
			found = out != nil
		}
		return !found
	})
	return out, found
}

// rangeKeyNames resolves an object bound as the key of a range over a
// map composite literal to the literal's constant string keys.
func rangeKeyNames(pass *analysis.Pass, obj types.Object) ([]string, bool) {
	var names []string
	found := false
	forEachNode(pass, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		key, ok := rng.Key.(*ast.Ident)
		if !ok || pass.TypesInfo.Defs[key] != obj {
			return true
		}
		lit, ok := rng.X.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			s, ok := constString(pass, kv.Key)
			if !ok {
				return true
			}
			names = append(names, s)
		}
		found = true
		return false
	})
	return names, found
}

func forEachNode(pass *analysis.Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, fn)
	}
}

func checkFlags(pass *analysis.Pass, docs *docSet) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagMethods[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			if !isFlagSetMethod(pass, sel) {
				return true
			}
			name, ok := constString(pass, call.Args[0])
			if !ok {
				pass.Reportf(call.Args[0].Pos(), "flag name is not a constant string")
				return true
			}
			if !docs.contains("OPERATIONS.md", "-"+name) && !docs.contains("QUERIES.md", "-"+name) {
				pass.Reportf(call.Args[0].Pos(),
					"flag -%s is not documented in OPERATIONS.md or QUERIES.md", name)
			}
			return true
		})
	}
}

// isFlagSetMethod reports whether sel names a *flag.FlagSet method.
func isFlagSetMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "FlagSet" && obj.Pkg() != nil && obj.Pkg().Path() == "flag"
}

// checkKeywords requires every ALL-CAPS literal (a query-language
// keyword) to be documented in QUERIES.md. Each distinct keyword is
// reported once, at its first occurrence.
func checkKeywords(pass *analysis.Pass, docs *docSet) {
	seen := make(map[string]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, ok := constString(pass, lit)
			if !ok || !keywordRe.MatchString(s) || seen[s] {
				return true
			}
			seen[s] = true
			if !docs.contains("QUERIES.md", s) {
				pass.Reportf(lit.Pos(), "query keyword %q is not documented in QUERIES.md", s)
			}
			return true
		})
	}
}
