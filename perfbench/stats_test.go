package main

import (
	"testing"
	"time"
)

func ramp(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Millisecond
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := ramp(1000)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{
		{50, 500 * time.Millisecond},
		{90, 900 * time.Millisecond},
		{99, 990 * time.Millisecond},
	} {
		got, err := percentile(s, c.p)
		if err != nil {
			t.Fatalf("p%v: %v", c.p, err)
		}
		if got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(ramp(999), 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it; want an error")
	}
	if _, err := percentile(ramp(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(ramp(19), 50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it; want an error")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(ramp(5000), p); err == nil {
			t.Errorf("p%v: want an error", p)
		}
	}
}

func TestSamplesFor(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 20}, {90, 100}, {99, 1000}, {99.9, 10000}} {
		n := samplesFor(c.p)
		if n != c.want {
			t.Errorf("samplesFor(%v) = %d, want %d", c.p, n, c.want)
		}
		if _, err := percentile(ramp(n), c.p); err != nil {
			t.Errorf("p%v of samplesFor samples: %v", c.p, err)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
