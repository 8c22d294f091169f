package obs

import "time"

// SimClock supplies the current simulated time; *sim.Engine satisfies
// it. Spans started with a clock record sim-clock durations next to
// wall-clock ones, so a trace of the attack pipeline lines up with the
// simulated hardware events it drove.
type SimClock interface {
	Now() time.Duration
}

// Span is one timed operation. It is a value type so starting a span on
// a hot path does not allocate; End records the durations into the
// registry's histograms and the recent-span ring.
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

// End closes the span: wall (and, when a clock is attached, sim)
// durations are recorded into "span.<name>.wall_ns" / ".sim_ns"
// histograms and the span joins the bounded recent-span ring.
func (s Span) End() {
	if s.reg == nil {
		return
	}
	wall := time.Since(s.wallStart)
	rec := SpanRecord{Name: s.name, EndedAt: time.Now(), Wall: wall}
	s.reg.Histogram("span." + s.name + ".wall_ns").Observe(float64(wall.Nanoseconds()))
	if s.clock != nil {
		simEnd := s.clock.Now()
		sim := simEnd - s.simStart
		rec.Sim = sim
		rec.SimEnd = simEnd
		rec.HasSim = true
		s.reg.Histogram("span." + s.name + ".sim_ns").Observe(float64(sim.Nanoseconds()))
	}
	s.reg.mu.Lock()
	s.reg.spans.add(rec)
	s.reg.mu.Unlock()
}

// SpanRecord is one completed span in the recent-span ring.
type SpanRecord struct {
	// Name of the span.
	Name string `json:"name"`
	// EndedAt is the wall-clock completion time.
	EndedAt time.Time `json:"ended_at"`
	// Wall is the wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
	// Sim is the sim-clock duration; meaningful iff HasSim.
	Sim time.Duration `json:"sim_ns"`
	// SimEnd is the sim-clock timestamp at which the span ended;
	// meaningful iff HasSim. Together with Sim it places the span on a
	// simulated-time axis, which is what lets the trace exporter render
	// a second, sim-clock track next to the wall-clock one.
	SimEnd time.Duration `json:"sim_end_ns"`
	// HasSim reports whether the span carried a simulation clock.
	HasSim bool `json:"has_sim"`
}

// WallStart returns the wall-clock start time (EndedAt minus Wall).
func (r SpanRecord) WallStart() time.Time { return r.EndedAt.Add(-r.Wall) }

// SimStart returns the sim-clock start time (SimEnd minus Sim); zero
// when the span carried no simulation clock.
func (r SpanRecord) SimStart() time.Duration {
	if !r.HasSim {
		return 0
	}
	return r.SimEnd - r.Sim
}

// SpanRingSize bounds the completed-span store, a fixed-size ring: old
// entries are overwritten, so long experiments keep constant memory no
// matter how many spans they complete. The trace exporter renders the
// retained spans as a timeline.
const SpanRingSize = 1024

type spanRing struct {
	buf  [SpanRingSize]SpanRecord
	next int
	n    int
}

func (r *spanRing) add(s SpanRecord) {
	r.buf[r.next] = s
	r.next = (r.next + 1) % SpanRingSize
	if r.n < SpanRingSize {
		r.n++
	}
}

func (r *spanRing) list() []SpanRecord {
	out := make([]SpanRecord, 0, r.n)
	start := (r.next - r.n + SpanRingSize) % SpanRingSize
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%SpanRingSize])
	}
	return out
}

func (r *spanRing) reset() { *r = spanRing{} }

// RecentSpans returns the retained completed spans, oldest first.
func (r *Registry) RecentSpans() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.list()
}
