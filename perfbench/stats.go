package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of exact samples (sorted in
// place). It reads the samples themselves, never a histogram's buckets.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[max(0, min(i, len(samples)-1))]
}

// median is quantile(samples, 0.5) on a copy.
func median(samples []float64) float64 {
	return quantile(slices.Clone(samples), 0.5)
}

// mean returns the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
