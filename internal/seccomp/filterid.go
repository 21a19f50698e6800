package seccomp

// FilterID fingerprints a compiled program: FNV-1a over every
// instruction's fields in order. Two programs get the same ID iff they are
// instruction-for-instruction identical, which is how the hot-reload
// tests tell generations' filters apart (a differing ID proves the
// kernel-side program really changed).
//
// The hash is stable across processes and runs — no map iteration, no
// pointers — so IDs are safe to compare in golden tests and across the
// fleet.
func FilterID(prog []Insn) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	byte1 := func(b uint64) {
		h = (h ^ (b & 0xff)) * prime64
	}
	for _, in := range prog {
		byte1(uint64(in.Code))
		byte1(uint64(in.Code >> 8))
		byte1(uint64(in.Jt))
		byte1(uint64(in.Jf))
		byte1(uint64(in.K))
		byte1(uint64(in.K >> 8))
		byte1(uint64(in.K >> 16))
		byte1(uint64(in.K >> 24))
	}
	return h
}
