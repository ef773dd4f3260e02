// Package broken does not type-check: loading it must fail, not analyze a
// partial package.
package broken

var n int = "three"
