package kernel

// Staged returns the whole of the process's staging buffer, up to its
// capacity.
func (p *Process) Staged() []byte { return p.stage[:cap(p.stage)] }
