//go:build !race

package tcpbind

const raceEnabled = false
