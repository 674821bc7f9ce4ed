package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp flags == and != between floating-point operands. Exact float
// equality is almost never what simulation or classification code means:
// accumulated rounding makes mathematically equal quantities compare
// unequal, and the failure is silent and seed-dependent. Compare within an
// explicit tolerance instead;
// genuinely intentional exact comparisons — sort tie-breaks, sentinel
// values — carry a //lint:allow(floatcmp) annotation saying so.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc: "flags exact ==/!= comparison of floating-point values; use " +
		"a tolerance or annotate the intentional exact comparison",
	Run: runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if tv, ok := pass.Pkg.Info.Types[be]; ok && tv.Value != nil {
				// The whole comparison is a compile-time constant.
				return true
			}
			if floatKind(pass, be.X)&types.IsFloat != 0 && floatKind(pass, be.Y)&types.IsFloat != 0 {
				pass.Reportf(be.OpPos,
					"exact %s comparison of floating-point values; compare within a tolerance or annotate with //lint:allow(floatcmp)",
					be.Op)
			}
			return true
		})
	}
}
