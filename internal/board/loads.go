package board

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// UtilizationSource is a rail load controlled by a utilization fraction,
// used to model the CPU power domains and the DDR memory: victims (the
// DPU inference driver, the RSA control task) set the utilization each
// tick and the rail sees a proportional current.
type UtilizationSource struct {
	name    string
	idle    float64 // amps at zero utilization
	dynamic float64 // additional amps at full utilization
	util    float64
}

// NewUtilizationSource returns a load drawing idle amps at util 0 and
// idle+dynamic amps at util 1.
func NewUtilizationSource(name string, idle, dynamic float64) (*UtilizationSource, error) {
	if name == "" {
		return nil, errors.New("board: load needs a name")
	}
	if idle < 0 || dynamic < 0 {
		return nil, fmt.Errorf("board: load %s: negative current", name)
	}
	return &UtilizationSource{name: name, idle: idle, dynamic: dynamic}, nil
}

// SourceName implements power.Source.
func (u *UtilizationSource) SourceName() string { return u.name }

// Current implements power.Source.
func (u *UtilizationSource) Current() float64 { return u.idle + u.dynamic*u.util }

// SetUtil sets the utilization, clamped to [0,1].
func (u *UtilizationSource) SetUtil(x float64) {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	u.util = x
}

// Util returns the present utilization.
func (u *UtilizationSource) Util() float64 { return u.util }

// BackgroundLoad models operating-system background activity on a rail
// (scheduler ticks, daemons, page-cache churn) as a mean-reverting
// Ornstein-Uhlenbeck random walk. It is what keeps the CPU and DRAM
// side channels from being noise-free: the paper's CPU sensors
// fingerprint models at 83.7%/55.7% rather than ~100% precisely because
// unrelated system activity shares those rails.
type BackgroundLoad struct {
	name    string
	mean    float64 // long-run mean current, amps
	sigma   float64 // diffusion strength, amps/√s
	revert  float64 // mean-reversion rate, 1/s
	maxAmps float64
	rng     *sim.Rand
	current float64
}

// NewBackgroundLoad validates the parameters and returns a load sitting
// at its mean.
func NewBackgroundLoad(name string, mean, sigma, revert, max float64, rng *sim.Rand) (*BackgroundLoad, error) {
	if name == "" {
		return nil, errors.New("board: background load needs a name")
	}
	if mean < 0 || sigma < 0 || revert <= 0 || max <= 0 || mean > max {
		return nil, fmt.Errorf("board: background load %s: bad parameters", name)
	}
	if rng == nil {
		return nil, fmt.Errorf("board: background load %s: nil random stream", name)
	}
	return &BackgroundLoad{
		name: name, mean: mean, sigma: sigma, revert: revert,
		maxAmps: max, rng: rng, current: mean,
	}, nil
}

// SourceName implements power.Source.
func (b *BackgroundLoad) SourceName() string { return b.name }

// Current implements power.Source.
func (b *BackgroundLoad) Current() float64 { return b.current }

// Step implements sim.Steppable: one Euler-Maruyama step of the OU
// process, clamped to [0, max].
func (b *BackgroundLoad) Step(now, dt time.Duration) {
	sec := dt.Seconds()
	b.current += b.revert*(b.mean-b.current)*sec +
		b.sigma*b.rng.NormFloat64()*math.Sqrt(sec)
	if b.current < 0 {
		b.current = 0
	}
	if b.current > b.maxAmps {
		b.current = b.maxAmps
	}
}
