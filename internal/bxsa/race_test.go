//go:build race

package bxsa

const raceEnabled = true
