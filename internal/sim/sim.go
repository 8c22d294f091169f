// Package sim is the fixed-step discrete-time simulation kernel under
// every simulated hardware component in this repository.
//
// The board, its power delivery network, the victim circuits, and the
// INA226 sensors all advance in lock step: the engine calls Step(now, dt)
// on every registered component once per tick, in registration order
// (producers of current are registered before consumers such as sensors,
// so a sensor always observes the rail state of the current tick).
//
// The kernel also owns deterministic random-number streams. Components
// must never use the global math/rand state; they request a named stream
// from the engine so that an experiment's outcome depends only on the
// root seed and the component names, not on registration order or
// goroutine scheduling. A named stream is a *Rand: it reproduces
// math/rand's sequence, rand.New(rand.NewSource(seed ^ FNV-1a(name))),
// value for value, through concrete methods rather than the *rand.Rand
// → rand.Source interface call on every draw.
package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/obs"
)

// Steppable is a simulated component advanced once per engine tick.
type Steppable interface {
	// Step advances the component from now to now+dt. The engine
	// guarantees monotonically increasing now values and a constant dt.
	Step(now time.Duration, dt time.Duration)
}

// StepFunc adapts a plain function to the Steppable interface.
type StepFunc func(now, dt time.Duration)

// Step calls f(now, dt).
func (f StepFunc) Step(now, dt time.Duration) { f(now, dt) }

// Engine is a fixed-step simulation engine.
//
// The zero value is not usable; construct one with NewEngine.
type Engine struct {
	dt      time.Duration
	now     time.Duration
	seed    int64
	parts   []Steppable
	names   map[string]bool
	streams map[string]*Rand

	// Observability. Counters aggregate across every live engine (the
	// fingerprinting pipeline runs many boards in parallel); the ratio
	// gauge is per-Run, last writer wins.
	wallInRun time.Duration
	simInRun  time.Duration
	obsTicks  *obs.Counter
	obsSimNs  *obs.Counter
	obsWallNs *obs.Counter
	obsRatio  *obs.Gauge
}

// NewEngine returns an engine with the given tick size and root seed.
func NewEngine(dt time.Duration, seed int64) (*Engine, error) {
	if dt <= 0 {
		return nil, errors.New("sim: non-positive step")
	}
	return &Engine{
		dt:        dt,
		seed:      seed,
		names:     make(map[string]bool),
		streams:   make(map[string]*Rand),
		obsTicks:  obs.C("sim.ticks"),
		obsSimNs:  obs.C("sim.simtime_ns"),
		obsWallNs: obs.C("sim.walltime_ns"),
		obsRatio:  obs.G("sim.ratio"),
	}, nil
}

// MustNewEngine is NewEngine for static configurations; it panics on error.
func MustNewEngine(dt time.Duration, seed int64) *Engine {
	e, err := NewEngine(dt, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// Dt returns the engine tick size.
func (e *Engine) Dt() time.Duration { return e.dt }

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Seed returns the root seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Register adds a component to the step list under a unique name.
// Registration order is step order within a tick.
func (e *Engine) Register(name string, s Steppable) error {
	if s == nil {
		return errors.New("sim: nil component")
	}
	if e.names[name] {
		return fmt.Errorf("sim: duplicate component %q", name)
	}
	e.names[name] = true
	e.parts = append(e.parts, s)
	return nil
}

// MustRegister is Register for static wiring; it panics on error.
func (e *Engine) MustRegister(name string, s Steppable) {
	if err := e.Register(name, s); err != nil {
		panic(err)
	}
}

// Stream returns the deterministic random stream for the given name,
// creating it on first use. The stream is math/rand's sequence for the
// seed root ^ FNV-1a(name), so the whole simulation stays a pure
// function of the root seed. Distinct names are not guaranteed distinct
// streams: math/rand reduces a seed mod 2³¹−1, so two of k names share
// a stream with probability about k²/2³².
func (e *Engine) Stream(name string) *Rand {
	if r, ok := e.streams[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	r := NewRand(e.seed ^ int64(h.Sum64()))
	e.streams[name] = r
	return r
}

// Tick advances the simulation by one step.
func (e *Engine) Tick() {
	for _, p := range e.parts {
		p.Step(e.now, e.dt)
	}
	e.now += e.dt
	e.obsTicks.Inc()
}

// account records a completed Run/RunUntil stretch in the obs layer:
// cumulative sim and wall nanoseconds (global counters) and this
// engine's lifetime sim-time/wall-time ratio (gauge).
func (e *Engine) account(sim, wall time.Duration) {
	if sim <= 0 {
		return
	}
	e.simInRun += sim
	e.wallInRun += wall
	e.obsSimNs.Add(sim.Nanoseconds())
	e.obsWallNs.Add(wall.Nanoseconds())
	if e.wallInRun > 0 {
		e.obsRatio.Set(float64(e.simInRun) / float64(e.wallInRun))
	}
}

// Run advances the simulation by d (rounded up to a whole number of
// ticks) and returns the number of ticks executed.
func (e *Engine) Run(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	n := int((d + e.dt - 1) / e.dt)
	start := time.Now()
	for i := 0; i < n; i++ {
		e.Tick()
	}
	e.account(time.Duration(n)*e.dt, time.Since(start))
	return n
}

// RunUntil advances the simulation until the predicate returns true or
// the budget elapses, whichever comes first. It reports whether the
// predicate fired.
func (e *Engine) RunUntil(pred func() bool, budget time.Duration) bool {
	start, simStart := time.Now(), e.now
	defer func() { e.account(e.now-simStart, time.Since(start)) }()
	deadline := e.now + budget
	for e.now < deadline {
		if pred() {
			return true
		}
		e.Tick()
	}
	return pred()
}
