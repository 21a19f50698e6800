//go:build race

package kernel_test

const raceEnabled = true
