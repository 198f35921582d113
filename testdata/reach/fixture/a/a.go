// Package a is the reachability guard's fixture.
package a

// Used is called from main.
func Used() { helper() }

func helper() {}

// Dead has no caller outside the tests.
func Dead() {}

func deadLocal() {}

// Kept has no caller either, but the allowlist names it.
func Kept() {}
