//go:build race

package tcpbind

const raceEnabled = true
