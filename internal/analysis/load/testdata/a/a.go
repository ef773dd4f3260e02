// Package a is the dependency half of the load fixture.
package a

// N is what package b imports.
const N = 3
