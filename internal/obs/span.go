package obs

import "time"

// SimClock supplies the current simulated time; *sim.Engine satisfies
// it. Spans started with a clock record sim-clock durations next to
// wall-clock ones, so the attack pipeline's cost lines up with the
// simulated hardware time it drove.
type SimClock interface {
	Now() time.Duration
}

// Span is one timed operation. It is a value type so starting a span on
// a hot path does not allocate; End records the durations into the
// registry's histograms.
type Span struct {
	reg       *Registry
	name      string
	clock     SimClock
	wallStart time.Time
	simStart  time.Duration
}

// StartSpan begins a span. clock may be nil when no simulation is
// attached (e.g. classifier training); such spans record wall time only.
func (r *Registry) StartSpan(name string, clock SimClock) Span {
	s := Span{reg: r, name: name, clock: clock, wallStart: time.Now()}
	if clock != nil {
		s.simStart = clock.Now()
	}
	return s
}

// StartSpan begins a span on the Default registry.
func StartSpan(name string, clock SimClock) Span {
	return Default.StartSpan(name, clock)
}

// End closes the span: the wall (and, when a clock is attached, sim)
// duration is recorded into the "span.<name>.wall_ns" (".sim_ns")
// histogram.
func (s Span) End() {
	if s.reg == nil {
		return
	}
	wall := time.Since(s.wallStart)
	s.reg.Histogram("span." + s.name + ".wall_ns").Observe(float64(wall.Nanoseconds()))
	if s.clock != nil {
		sim := s.clock.Now() - s.simStart
		s.reg.Histogram("span." + s.name + ".sim_ns").Observe(float64(sim.Nanoseconds()))
	}
}
