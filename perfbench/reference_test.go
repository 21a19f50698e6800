package main

import (
	"testing"
	"time"
)

// record appends n rounds of time d with midpoints from `from` on, one
// millisecond apart.
func record(c *refClock, n int, d, from time.Duration) {
	for i := range n {
		c.times[c.rounds] = int64(d)
		c.mids[c.rounds] = int64(from + time.Duration(i)*time.Millisecond)
		c.rounds++
	}
}

func TestRefClockScalesByNearbyRounds(t *testing.T) {
	c, err := newRefClock()
	if err != nil {
		t.Fatal(err)
	}
	record(c, 10, refNominal, time.Second)
	record(c, 10, 2*refNominal, 3*time.Second)
	record(c, refMinRounds-1, 4*refNominal, 5*time.Second)
	if f := c.at(c.epoch.Add(time.Second)); f != 1 {
		t.Errorf("factor at 1 s = %v, want 1 (rounds at nominal speed)", f)
	}
	if f := c.at(c.epoch.Add(3 * time.Second)); f != 0.5 {
		t.Errorf("factor at 3 s = %v, want 0.5 (rounds at half speed)", f)
	}
	if f := c.at(c.epoch.Add(5 * time.Second)); f != c.factor() {
		t.Errorf("factor at 5 s = %v, want the run's %v: too few rounds nearby", f, c.factor())
	}
	if f := c.factor(); f != 0.5 {
		t.Errorf("run factor = %v, want 0.5 (median round at half speed)", f)
	}
}

func TestRefClockRunsAShareOfEachSample(t *testing.T) {
	c, err := newRefClock()
	if err != nil {
		t.Fatal(err)
	}
	c.after(0)
	if c.rounds != 1 {
		t.Fatalf("after a 0 s sample: %d rounds, want 1", c.rounds)
	}
	sample := 40 * time.Millisecond
	c.after(sample)
	var spent time.Duration
	for i := 1; i < c.rounds; i++ {
		spent += time.Duration(c.times[i])
		if c.mids[i] <= c.mids[i-1] {
			t.Errorf("round midpoints not ascending at %d", i)
		}
	}
	if spent < sample/refShare {
		t.Errorf("rounds after a %v sample took %v, want at least %v", sample, spent, sample/refShare)
	}
}
