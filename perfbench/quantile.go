package main

import "hermes/internal/stats"

// quantile returns the q-quantile of samples, interpolated between order
// statistics as internal/stats defines it; samples is not modified and an
// empty set yields 0.
func quantile(samples []float64, q float64) float64 {
	return stats.Summarize(samples).Quantile(q)
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
