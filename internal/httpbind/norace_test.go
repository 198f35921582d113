//go:build !race

package httpbind

const raceEnabled = false
