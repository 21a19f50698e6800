// Package caller is a module that only calls into the fixture.
package caller

import "fixture/a"

// X calls a.CallerOnly.
var X = a.CallerOnly()
