package b

import "fixture/a"

// calls stands in for a test in another directory.
func calls() int { return a.OtherTest() }
