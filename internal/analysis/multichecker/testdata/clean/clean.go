// Package clean is the multichecker driver fixture: two functions for the
// test analyzer to find.
package clean

func One() int { return 1 }

func Two() int { return One() + 1 }
