// Package leakage implements standard side-channel leakage assessment:
// signal-to-noise ratio over labelled trace groups, Welch's t-statistic,
// and the TVLA fixed-vs-random methodology (Goodwill et al.) used across
// the hardware-security literature to certify whether a channel leaks.
//
// The repository uses it to quantify the AmpereBleed channel: the FPGA
// current samples of RSA victims with different keys fail TVLA wildly
// (the attack works), while the Montgomery-ladder victim passes.
package leakage

import (
	"errors"
	"math"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Channel-health gauges: every successful assessment records its
// outcome so the obs snapshot (and the run ledger) shows the channel's
// quality without re-running the analysis.
var (
	gaugeSNR  = obs.G("leakage.snr")
	gaugeTVLA = obs.G("leakage.tvla_t")
)

// TVLAThreshold is the conventional |t| bound: a channel whose
// fixed-vs-random t-statistic exceeds 4.5 is considered leaking.
const TVLAThreshold = 4.5

// SNR computes the signal-to-noise ratio of a labelled channel: the
// variance of the per-group means (signal) over the mean of the
// within-group variances (noise). Groups with fewer than two samples
// are rejected.
func SNR(groups [][]float64) (float64, error) {
	if len(groups) < 2 {
		return 0, errors.New("leakage: need at least two groups")
	}
	means := make([]float64, len(groups))
	var noise float64
	for i, g := range groups {
		if len(g) < 2 {
			return 0, errors.New("leakage: group with fewer than two samples")
		}
		m, err := stats.Mean(g)
		if err != nil {
			return 0, err
		}
		v, err := stats.Variance(g)
		if err != nil {
			return 0, err
		}
		means[i] = m
		noise += v
	}
	noise /= float64(len(groups))
	signal, err := stats.Variance(means)
	if err != nil {
		return 0, err
	}
	snr := signal / noise
	if noise == 0 {
		if signal == 0 {
			snr = 0
		} else {
			snr = math.Inf(1)
		}
	}
	gaugeSNR.Set(snr)
	return snr, nil
}

// WelchT returns Welch's t-statistic between two samples (unequal
// variances, unequal sizes).
func WelchT(a, b []float64) (float64, error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, errors.New("leakage: need at least two samples per side")
	}
	ma, err := stats.Mean(a)
	if err != nil {
		return 0, err
	}
	mb, err := stats.Mean(b)
	if err != nil {
		return 0, err
	}
	va, err := stats.SampleVariance(a)
	if err != nil {
		return 0, err
	}
	vb, err := stats.SampleVariance(b)
	if err != nil {
		return 0, err
	}
	denom := math.Sqrt(va/float64(len(a)) + vb/float64(len(b)))
	if denom == 0 {
		if ma == mb {
			return 0, nil
		}
		return math.Inf(sign(ma - mb)), nil
	}
	return (ma - mb) / denom, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// TVLAResult is the outcome of a fixed-vs-random test.
type TVLAResult struct {
	// T is Welch's t-statistic between the fixed and random sets.
	T float64
	// Leaks reports |T| > TVLAThreshold.
	Leaks bool
}

// TVLA runs the fixed-vs-random test on two sample sets.
func TVLA(fixed, random []float64) (TVLAResult, error) {
	t, err := WelchT(fixed, random)
	if err != nil {
		return TVLAResult{}, err
	}
	gaugeTVLA.Set(t)
	return TVLAResult{T: t, Leaks: math.Abs(t) > TVLAThreshold}, nil
}
