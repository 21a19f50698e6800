package main

import (
	"fmt"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host clock of a shared virtual machine drifts: the same simulator
// code runs up to 15% faster or slower from one minute to the next, with
// almost no stolen time to show for it (see README.md). A refClock tracks
// that drift by timing a fixed reference job between the benchmark's own
// samples, so that host times can be scaled to a nominal machine speed.
//
// The job is an interpreter loop over registers, a 512 KiB memory and a
// hashed table, like the simulator's hot path. It is the benchmark's
// code, not the repository's, so a change to the simulator cannot make it
// faster or slower. Its memory and its record of times live outside the
// Go heap and the job does not allocate, so the simulator's garbage does
// not slow it through GC assists and it adds nothing to heap_live_mb.
//
// Every workload keeps two CPUs busy: the single-application loop and the
// GC, or the fleet's two shard workers. So a round of the job runs two
// copies at once, one per goroutine, and takes until both have finished:
// a neighbour slowing either CPU slows the round.

// refWidth is the number of copies of the job a round runs at once.
const refWidth = 2

// refNominal is a round's typical time on the 2-CPU development machine.
// Scaled host times read as that machine's at its usual speed.
const refNominal = 1100 * time.Microsecond

// refShare sets the rounds' share of the time: after a sample that took
// d, rounds run until they have taken d/refShare, and at least one does.
const refShare = 10

// A sample is scaled by the median round within refWindow of its
// midpoint, or by the whole run's median round if fewer than refMinRounds
// ran there.
const (
	refWindow    = 500 * time.Millisecond
	refMinRounds = 5
)

// refIters is the number of passes over the program in one job.
const refIters = 5000

// The job's memory and table sizes in words, and the most rounds a run
// records (about ten minutes' worth); no more rounds run after that.
const (
	refMemWords   = 1 << 16
	refTableWords = 1 << 10
	refMaxRounds  = 1 << 16
)

type refOp struct {
	code, a, b uint8
	imm        int64
}

// refJob is one copy of the job's state.
type refJob struct {
	prog  [64]refOp
	regs  [8]int64
	mem   []int64 // refMemWords, off-heap
	table []int64 // refTableWords, off-heap
}

// refClock runs rounds of the job and keeps their times.
type refClock struct {
	jobs [refWidth]refJob
	// The rounds' times and midpoints, in nanoseconds (midpoints since
	// epoch): refMaxRounds slots each, off-heap.
	times, mids []int64
	rounds      int
	epoch       time.Time
}

func newRefClock() (*refClock, error) {
	words, err := offHeap(refWidth*(refMemWords+refTableWords) + 2*refMaxRounds)
	if err != nil {
		return nil, fmt.Errorf("reference job memory: %w", err)
	}
	c := &refClock{epoch: time.Now()}
	for i := range c.jobs {
		j := &c.jobs[i]
		j.mem, words = words[:refMemWords], words[refMemWords:]
		j.table, words = words[:refTableWords], words[refTableWords:]
		for pc := range j.prog {
			j.prog[pc] = refOp{code: uint8(pc % 5), a: uint8(pc % 8), b: uint8(pc * 3 % 8), imm: int64(pc*7 + 1)}
		}
		for k := range j.table {
			j.table[k] = int64(k)
		}
	}
	c.times, c.mids = words[:refMaxRounds], words[refMaxRounds:]
	return c, nil
}

// offHeap maps n zeroed words of anonymous memory outside the Go heap.
// They stay mapped until the process exits.
func offHeap(n int) ([]int64, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
}

// run runs the job once. Its registers carry over from one run to the
// next, so the work is never dead code. They live on the goroutine's stack
// while it runs, so that two copies never write to the same cache line.
func (j *refJob) run() {
	prog, mem, table, regs := &j.prog, j.mem, j.table, j.regs
	for it := 0; it < refIters; it++ {
		for pc := range prog {
			op := &prog[pc]
			switch op.code {
			case 0:
				regs[op.a] += regs[op.b] + op.imm
			case 1:
				regs[op.a] = mem[(regs[op.b]^op.imm)&(refMemWords-1)]
			case 2:
				mem[(regs[op.a]+op.imm)&(refMemWords-1)] = regs[op.b]
			case 3:
				if regs[op.a]&1 == 0 {
					regs[op.b] ^= op.imm
				}
			case 4:
				// A multiplicative hash into the table.
				k := uint64(regs[op.a]) * 0x9e3779b97f4a7c15 >> 54
				table[k] += regs[op.b]
				regs[op.b] = table[k*31&(refTableWords-1)]
			}
		}
	}
	j.regs = regs
}

// round runs every copy of the job at once and returns when the round
// started and how long it took.
func (c *refClock) round() (time.Time, time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 1; i < refWidth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.jobs[i].run()
		}()
	}
	c.jobs[0].run()
	wg.Wait()
	return start, time.Since(start)
}

// after runs rounds after a sample that took d: until they have taken
// d/refShare, and at least one.
func (c *refClock) after(d time.Duration) {
	var spent time.Duration
	for c.rounds < refMaxRounds && (spent == 0 || spent < d/refShare) {
		start, t := c.round()
		c.times[c.rounds] = int64(t)
		c.mids[c.rounds] = int64(midpoint(start, t).Sub(c.epoch))
		c.rounds++
		spent += t
	}
}

// factor is refNominal over the run's median round: a host time
// multiplied by it, or a host rate divided by it, reads at nominal
// machine speed.
func (c *refClock) factor() float64 {
	if c.rounds == 0 {
		return 1
	}
	return float64(refNominal) / float64(median(c.times[:c.rounds]))
}

// at is the factor for a sample whose midpoint is mid: refNominal over
// the median round within refWindow of it.
func (c *refClock) at(mid time.Time) float64 {
	t := int64(mid.Sub(c.epoch))
	mids := c.mids[:c.rounds] // ascending
	lo, _ := slices.BinarySearch(mids, t-int64(refWindow))
	hi, _ := slices.BinarySearch(mids, t+int64(refWindow)+1)
	if hi-lo < refMinRounds {
		return c.factor()
	}
	return float64(refNominal) / float64(median(c.times[lo:hi]))
}

// midpoint is the middle of a sample that started at start and took d.
func midpoint(start time.Time, d time.Duration) time.Time { return start.Add(d / 2) }

// note describes the run's machine speed for the printed output.
func (c *refClock) note() string {
	return fmt.Sprintf("reference rounds: median %.1f us over %d rounds, nominal %.1f us (run factor %.4f)",
		float64(refNominal)/c.factor()/1e3, c.rounds, float64(refNominal)/1e3, c.factor())
}
