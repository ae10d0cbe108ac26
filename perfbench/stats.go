package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles. The quartiles use the same
// "exclusive" method as Python's statistics.quantiles(values, n=4), so the
// spreads printed here match the ones a reader computes from the records.
type summary struct {
	Median float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	return summary{Median: median(s), Q1: quantileExclusive(s, 1), Q3: quantileExclusive(s, 3), N: n}
}

// median of an ascending sample.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileExclusive is cut point i of 4 of an ascending sample of at least
// two values, by statistics.quantiles' default method.
func quantileExclusive(s []float64, i int) float64 {
	n := len(s)
	m := n + 1
	j := min(max(i*m/4, 1), n-1)
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}
