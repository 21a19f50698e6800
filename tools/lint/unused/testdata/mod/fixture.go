// Package fixture is the checker's test module; its exported API is live.
package fixture

// API is live: the root package's exported API.
func API() {}
