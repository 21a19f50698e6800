package kernel

import "bastion/internal/vm"

// Staged returns the whole of the process's staging buffer, up to its
// capacity.
func (p *Process) Staged() []byte { return p.stage[:cap(p.stage)] }

// Memoized reports whether the process's verdict memo holds an entry for
// nr's slot.
func (p *Process) Memoized(nr uint32) bool { return p.verdicts[Slot(nr)].steps != 0 }

// ForgetVerdicts empties the verdict memo, so the next call of every
// number runs the filter.
func (p *Process) ForgetVerdicts() { clear(p.verdicts[:]) }

// Process returns the process object for a machine.
func (k *Kernel) Process(m *vm.Machine) *Process { return k.procs[m] }
