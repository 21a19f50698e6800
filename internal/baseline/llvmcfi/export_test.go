package llvmcfi

// ClassSize returns how many legal targets share a signature — the
// equivalence-class size whose looseness the paper's attacks exploit.
func (c *CFI) ClassSize(sig string) int {
	n := 0
	for _, s := range c.classes {
		if s == sig {
			n++
		}
	}
	return n
}
