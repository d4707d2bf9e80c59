package main

import "sort"

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// rate divides two counters, guarding the empty denominator.
func rate(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
