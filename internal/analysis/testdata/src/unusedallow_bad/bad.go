// Package unusedallow_bad is a known-bad fixture for stale-suppression
// detection: //lint:allow directives that suppress nothing must be
// reported, while directives naming analyzers outside the current run are
// left alone (their analyzer never looked).
package unusedallow_bad

// Exact really does trip floatcmp; its suppression is used and silent.
func Exact(a, b float64) bool {
	return a == b //lint:allow(floatcmp) fixture: bit-exact comparison intended
}

// Stale carries a floatcmp suppression on an integer comparison: floatcmp
// reports nothing here, so the directive is dead weight.
func Stale(a, b int) bool {
	return a == b //lint:allow(floatcmp) fixture: stale, nothing to suppress
}

// OtherAnalyzer names an analyzer that is not part of this run; absence of
// findings proves nothing, so it is not reported.
func OtherAnalyzer(a, b int) bool {
	return a == b //lint:allow(errdiscard) fixture: analyzer not in this run
}

// Wildcard suppresses everything and catches nothing.
func Wildcard(a, b int) bool {
	return a == b //lint:allow(*) fixture: stale wildcard
}
