package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CycleMath keeps floating point out of cycle and latency accounting. The
// engine's reproducibility contract is stated in integer cycles; a float
// smuggled into an accumulation (a "1.5x slowdown factor", a rounded
// average fed back into a schedule) introduces platform- and
// ordering-sensitive rounding that breaks bit-for-bit reproducibility.
//
// Within the core packages it forbids:
//
//   - converting a floating-point value to the cycle type
//     (sim.Cycle(f * 1.5));
//   - converting a cycle value to float32/float64 inside a function that
//     does not itself return a float. Reporting helpers that produce
//     ratios or seconds (Cycle.Seconds) return floats and are exempt;
//     everything else is accounting and must stay integral.
//
// The statistics and report packages are exempt wholesale: presentation
// math is their job.
type CycleMath struct{}

// Name implements Analyzer.
func (CycleMath) Name() string { return "cycle-math" }

// Check implements Analyzer.
func (CycleMath) Check(cfg *Config, pkg *Package) []Diagnostic {
	if !cfg.IsCore(pkg.Path) || cfg.IsFloatExempt(pkg.Path) {
		return nil
	}
	c := &cycleMathCheck{cfg: cfg, pkg: pkg}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.walk(fd.Body, c.declReturnsFloat(fd))
		}
	}
	return c.diags
}

type cycleMathCheck struct {
	cfg   *Config
	pkg   *Package
	diags []Diagnostic
}

// walk inspects one function body. floatOK marks reporting functions (a
// float in the result list), whose cycle-to-float conversions are
// legitimate. Nested function literals carry their own signatures.
func (c *cycleMathCheck) walk(body ast.Node, floatOK bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.walk(n.Body, c.litReturnsFloat(n) || floatOK)
			return false
		case *ast.CallExpr:
			c.checkConversion(n, floatOK)
		}
		return true
	})
}

// checkConversion flags float->cycle always, and cycle->float outside
// reporting functions.
func (c *cycleMathCheck) checkConversion(call *ast.CallExpr, floatOK bool) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := c.pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	target := tv.Type
	argType := exprType(c.pkg, call.Args[0])
	if argType == nil {
		return
	}
	switch {
	case c.isCycle(target) && isFloat(argType):
		c.report(call, "floating-point value converted to %s: cycle accounting must stay integral", c.cfg.CycleType)
	case isFloat(target) && c.isCycle(argType) && !floatOK:
		c.report(call, "cycle value converted to %s inside a function that does not return a float: latency accounting must stay integral (reporting helpers that return floats are exempt)", types.ExprString(call.Fun))
	}
}

func (c *cycleMathCheck) report(n ast.Node, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pos:      c.pkg.Fset.Position(n.Pos()),
		Analyzer: "cycle-math",
		Message:  fmt.Sprintf(format, args...),
	})
}

// isCycle reports whether t is the configured cycle type.
func (c *cycleMathCheck) isCycle(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path()+"."+obj.Name() == c.cfg.CycleType
}

func isFloat(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// declReturnsFloat reports whether the function declaration's result list
// contains a floating-point type.
func (c *cycleMathCheck) declReturnsFloat(fd *ast.FuncDecl) bool {
	obj, ok := c.pkg.Info.Defs[fd.Name]
	if !ok {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return signatureReturnsFloat(fn.Type().(*types.Signature))
}

func (c *cycleMathCheck) litReturnsFloat(lit *ast.FuncLit) bool {
	t := exprType(c.pkg, lit)
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return ok && signatureReturnsFloat(sig)
}

func signatureReturnsFloat(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		if isFloat(t) || strings.Contains(t.String(), "float64") {
			return true
		}
	}
	return false
}
