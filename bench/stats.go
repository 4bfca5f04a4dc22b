package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// at interpolates linearly between the order statistics of sorted s around
// the (clamped) fractional index pos.
func at(s []float64, pos float64) float64 {
	pos = math.Max(0, math.Min(pos, float64(len(s)-1)))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return at(sorted(xs), q*float64(len(xs)-1))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure -compare holds against a metric's bound. The
// quartiles follow Python's statistics.quantiles(n=4) (exclusive method).
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	quartile := func(p float64) float64 { return at(s, p*float64(n+1)-1) }
	return math.Abs((quartile(0.75) - quartile(0.25)) / m)
}
