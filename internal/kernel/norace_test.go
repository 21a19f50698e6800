//go:build !race

package kernel_test

const raceEnabled = false
