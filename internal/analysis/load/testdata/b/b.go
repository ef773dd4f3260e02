// Package b is the root half of the load fixture: it imports a module
// package (loaded from source, before b) and a standard one (loaded from
// export data).
package b

import (
	"strings"

	"acic/internal/analysis/load/testdata/a"
)

func Repeat() string { return strings.Repeat("x", a.N) }
