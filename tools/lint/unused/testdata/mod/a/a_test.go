package a

// writes stands in for a test: it writes the test-only fields and calls the
// test-only function.
func writes() {
	c := &Config{Counts: []int{0}}
	c.TestOnly, c.Seam = true, 1
	var d Doc
	d.Title = "t"
	_ = OwnTestOnly() + Recursive(2)
}
