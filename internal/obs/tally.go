package obs

// Tally holds the pending counts of counters that one goroutine bumps
// on a hot path, as plain integers. Inside a batch (Begin ... End) an
// Add only adds to the pending count; End publishes each count that
// moved with one atomic Add. Outside a batch an Add publishes at once,
// so the registry is exact whenever no batch is open.
//
// A simulation engine owns one and batches each Run, so a sensor read
// inside the run costs a plain add instead of an atomic one on a cache
// line every worker shares.
//
// A nil *Tally never batches: its Adds publish at once. A Tally is not
// safe for concurrent use.
type Tally struct {
	open     bool
	pending  []int64
	counters []*Counter
}

// Slot is a counter's place on a Tally.
type Slot struct {
	c *Counter
	i int
}

// Slot returns c's place on the tally, adding it on first use. On a
// nil tally the slot publishes to c directly.
func (t *Tally) Slot(c *Counter) Slot {
	if t == nil {
		return Slot{c: c}
	}
	for i, d := range t.counters {
		if d == c {
			return Slot{c, i}
		}
	}
	if t.counters == nil {
		// A board's engine tally holds about a dozen counters.
		t.counters, t.pending = make([]*Counter, 0, 16), make([]int64, 0, 16)
	}
	t.counters = append(t.counters, c)
	t.pending = append(t.pending, 0)
	return Slot{c, len(t.counters) - 1}
}

// Add adds n to the counter in slot s: to its pending count inside a
// batch, to the counter itself outside one.
func (t *Tally) Add(s Slot, n int64) {
	if t != nil && t.open {
		t.pending[s.i] += n
		return
	}
	s.c.Add(n)
}

// Begin opens a batch and reports whether it did; false means one was
// already open, and its End publishes.
func (t *Tally) Begin() bool {
	if t.open {
		return false
	}
	t.open = true
	return true
}

// End publishes the pending counts and closes the batch if opened, the
// result of the matching Begin, is true. Call it from a defer, so a
// batch whose work panics still publishes what it counted.
func (t *Tally) End(opened bool) {
	if !opened {
		return
	}
	t.open = false
	for i, n := range t.pending {
		if n != 0 {
			t.counters[i].Add(n)
			t.pending[i] = 0
		}
	}
}
