//go:build race

package muxbind

const raceEnabled = true
