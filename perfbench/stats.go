package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond the highest reported
// percentile.
const minTail = 10

// tailPercentile is the highest latency percentile reported. The reference
// host stalls a running vCPU for 1-9 ms about three times a second; at
// cold-text's 2.3 ms per request that hits close to 1% of requests, so a p99
// would measure the host's stall rate rather than the program's tail.
const tailPercentile = 95

// percentile returns the p-th percentile (0 < p < 100) of samples by the
// nearest-rank rule, with an error unless at least minTail samples lie
// beyond it. samples must be sorted.
func percentile(samples []time.Duration, p float64) (time.Duration, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%v of %d samples is undefined", p, n)
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d", p, n, beyond, minTail)
	}
	return samples[rank-1], nil
}

// samplesFor returns how many samples p needs for minTail of them to lie
// beyond it. The 1e-9 absorbs rounding in 100 - p for fractional p.
func samplesFor(p float64) int {
	return int(math.Ceil(100*minTail/(100-p) - 1e-9))
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
