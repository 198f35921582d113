//go:build !race

package muxbind

const raceEnabled = false
