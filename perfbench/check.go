package main

import (
	"fmt"
	"math"
)

// checker is the correctness gate. A false negative on a live key, a
// failed remove of a live key, or an absent-key false-positive count above
// the analytic rate plus a 4σ Poisson margin fails the run. Legitimate
// refusals (an insert the filter reports as full, a non-OK status, a
// transport error) are not gate failures; they count in failed.
type checker struct {
	attempted, failed uint64
	falseNeg, badRem  uint64
	falsePos, absent  uint64
	// refused holds live-index ranges whose insert was refused; their keys
	// are exempt from the false-negative and remove checks.
	refused [][2]uint64
}

// forget drops the refused ranges when the live set restarts at index 0.
func (c *checker) forget() { c.refused = c.refused[:0] }

func (c *checker) exempt(i uint64) bool {
	for _, r := range c.refused {
		if i >= r[0] && i < r[1] {
			return true
		}
	}
	return false
}

// segment checks one segment's outcome.
func (c *checker) segment(s *segment) {
	c.attempted += uint64(len(s.keys))
	if s.err != nil {
		c.failed += uint64(len(s.keys))
		if s.op == opInsert && len(s.idx) > 0 {
			c.refused = append(c.refused, [2]uint64{s.idx[0], s.idx[len(s.idx)-1] + 1})
		}
		return
	}
	switch s.op {
	case opInsert:
		if s.n < len(s.keys) {
			c.failed += uint64(len(s.keys) - s.n)
			c.refused = append(c.refused, [2]uint64{s.idx[0], s.idx[len(s.idx)-1] + 1})
		}
	case opRemove:
		want := len(s.keys)
		if len(c.refused) > 0 {
			for _, i := range s.idx {
				if c.exempt(i) {
					want--
				}
			}
		}
		if s.n < want {
			c.badRem += uint64(want - s.n)
		}
	case opContains:
		for i, hit := range s.res[:len(s.keys)] {
			switch {
			case i >= s.live:
				c.absent++
				if hit {
					c.falsePos++
				}
			case !hit && !c.exempt(s.idx[i]):
				c.falseNeg++
			}
		}
	}
}

// fprRatio is the measured false-positive rate on absent keys.
func (c *checker) fprRatio() float64 {
	if c.absent == 0 {
		return 0
	}
	return float64(c.falsePos) / float64(c.absent)
}

// fpAllowed is the false-positive count the gate tolerates for an analytic
// rate eps: the expected count plus four Poisson standard deviations plus a
// small constant for tiny samples.
func (c *checker) fpAllowed(eps float64) float64 {
	mean := float64(c.absent) * eps
	return mean + 4*math.Sqrt(mean) + 4
}

// err returns the gate's verdict for analytic rate eps.
func (c *checker) err(eps float64) error {
	switch {
	case c.falseNeg > 0:
		return fmt.Errorf("correctness: %d false negatives on live keys", c.falseNeg)
	case c.badRem > 0:
		return fmt.Errorf("correctness: %d removes of live keys failed", c.badRem)
	case float64(c.falsePos) > c.fpAllowed(eps):
		return fmt.Errorf("correctness: %d false positives in %d absent lookups, above %.1f allowed at ε=%.3g",
			c.falsePos, c.absent, c.fpAllowed(eps), eps)
	}
	return nil
}
