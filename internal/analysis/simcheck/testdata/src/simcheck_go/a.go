// Package simcheck_go is a simcheck fixture for the runtime-managed
// packages.
package simcheck_go

import "time"

func spawn(f func()) {
	go f() // want "raw go statement in runtime-managed package"
}

func spawnLit() {
	go func() {}() // want "raw go statement in runtime-managed package"
}

// blessed is a sanctioned scheduler-internal spawn site.
//
//acic:allow-goroutine fixture: stands in for the PE scheduler loop
func blessed(f func()) {
	go f()
}

func blessedLine(f func()) {
	go f() //acic:allow-goroutine fixture: sanctioned spawn
}

// clock is clean here: this fixture is runtime-managed but not listed as
// deterministic, so the wall-clock rule does not apply.
func clock() time.Time {
	return time.Now()
}

func fine(f func()) {
	f()
}
