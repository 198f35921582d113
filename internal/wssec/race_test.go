//go:build race

package wssec

const raceEnabled = true
