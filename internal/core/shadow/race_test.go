//go:build race

package shadow

const raceEnabled = true
