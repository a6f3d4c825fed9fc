package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// KernelPackages lists the packages whose exported batched kernels must
// ship with a scalar cross-check: every word-parallel evaluator in the
// repo (64 lanes/word, carry rails, fill batches) has a scalar twin, and
// the *Matches* equivalence tests are what keep the pair honest.
var KernelPackages = map[string]bool{
	"fogbuster/internal/sim":    true,
	"fogbuster/internal/tdsim":  true,
	"fogbuster/internal/fausim": true,
}

// OraclePairAnalyzer enforces the oracle-pairing contract: in the kernel
// packages, every exported function or method whose name marks it as a
// batched kernel (containing "64", "Batch", or "Fills") must be reachable
// — through any chain of same-package calls — from a *Matches* equivalence
// test in that package. A 64-lane kernel without a scalar cross-check is a
// determinism bug waiting for an input wide enough to find it.
var OraclePairAnalyzer = &Analyzer{
	Name:      "oraclepair",
	Doc:       "exported batched kernels (*64/*Batch/*Fills) must be reachable from a *Matches* equivalence test in their package",
	NeedTypes: true,
	Run:       runOraclePair,
}

// isKernelName reports whether an exported name declares a batched kernel.
func isKernelName(name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	return strings.Contains(name, "64") || strings.Contains(name, "Batch") || strings.Contains(name, "Fills")
}

// isMatchesTest recognizes the equivalence-test naming convention
// (TestConfirmBatchMatchesScalar, TestEvalCarry64ConeMatchesFull, …).
func isMatchesTest(name string) bool {
	return strings.HasPrefix(name, "Test") && strings.Contains(name, "Matches")
}

func runOraclePair(pass *Pass) error {
	if !KernelPackages[pass.PkgPath] || pass.XTest {
		return nil
	}

	// Collect every function declaration in the package (tests included)
	// keyed by its types.Func object, so references resolve precisely even
	// when a method name shadows a function name.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	// refs[f] = set of same-package functions f's body references.
	refs := make(map[*types.Func][]*types.Func)
	for obj, fd := range decls {
		if fd.Body == nil {
			continue
		}
		seen := make(map[*types.Func]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			used, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || seen[used] {
				return true
			}
			if _, samePkg := decls[used]; samePkg {
				seen[used] = true
				refs[obj] = append(refs[obj], used)
			}
			return true
		})
	}

	// BFS from the Matches tests.
	reached := make(map[*types.Func]bool)
	var queue []*types.Func
	for obj, fd := range decls {
		if pass.IsTest[fileOf(pass, fd)] && fd.Recv == nil && isMatchesTest(obj.Name()) {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range refs[cur] {
			if !reached[next] {
				reached[next] = true
				queue = append(queue, next)
			}
		}
	}

	for obj, fd := range decls {
		if pass.IsTest[fileOf(pass, fd)] || !isKernelName(obj.Name()) {
			continue
		}
		if !reached[obj] {
			pass.Reportf(fd.Name.Pos(),
				"exported batched kernel %s is not reachable from any *Matches* equivalence test in %s: every 64-lane/batch kernel ships with a scalar cross-check, or carries //lint:allow oraclepair <reason>",
				obj.Name(), pass.PkgPath)
		}
	}
	return nil
}

// fileOf maps a declaration back to its containing file.
func fileOf(pass *Pass, n ast.Node) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= n.Pos() && n.Pos() < f.FileEnd {
			return f
		}
	}
	return nil
}
