package ina226

import (
	"math"
	"slices"
	"time"

	"repro/internal/obs"
)

// Clock is the latch clock of a board's INA226s: one engine part that
// steps all of them. An INA226 latches its registers once per update
// window, and between latches a reader can observe nothing the device
// does, so a deferred device costs the tick nothing: the clock counts
// ticks and touches the device only at the tick that closes its
// window, where the latch draws its fault decisions and advances the
// update and conversion counters exactly as an eager device's would.
// The analog inputs are integrated when something can observe them:
// the first register access after a run of ticks replays the ticks
// since the last one (see Device.Sync).
//
// Every device on a clock starts deferred; Device.Undefer makes it
// eager, and the clock then steps it on every tick. The order of the
// eager steps does not matter: each device draws only from its own
// streams and reads inputs already settled for the tick.
//
// The clock must be stepped once per engine tick, with consecutive now
// values (now+dt is the next tick's now), since a replay derives each
// pending tick's now from the clock.
type Clock struct {
	n   int64         // ticks stepped
	now time.Duration // the next tick's now
	dt  time.Duration // the tick size, 0 before the first Step

	due      int64 // no deferred device latches before tick count due
	eager    []*Device
	deferred []*Device

	ctrs counters // the devices' counters, on the stepping engine's tally
}

// NewClock returns a clock with no devices.
func NewClock() *Clock { return &Clock{due: math.MaxInt64, ctrs: unclocked} }

// SetTally implements sim.Counting: the devices on the clock count
// their conversions and register reads on t.
func (c *Clock) SetTally(t *obs.Tally) {
	c.ctrs = newCounters(t)
}

// Add puts d on the clock, deferred. d must be on no other clock.
//
// Precondition for a deferred device: its probe and the probe's
// Upstream read nothing but their own named random streams, constants,
// and inputs whose setters call Sync before they change the value; no
// other component draws from those streams or from the device's Rand,
// or reads the upstream's state without syncing first. The replay then
// consumes every stream and sees every input exactly as the per-tick
// integration would, and the registers come out bit for bit the same.
// A device whose probe reads engine-stepped state must be undeferred.
func (c *Clock) Add(d *Device) {
	if d.clock != nil {
		panic("ina226: " + d.label + " is already on a clock")
	}
	d.clock, d.deferred, d.ctrs = c, true, &c.ctrs
	d.syncTick, d.syncTime = c.n, d.accTime
	c.deferred = append(c.deferred, d)
	if c.dt > 0 {
		d.lastDt, d.lastSec = c.dt, c.dt.Seconds()
		c.schedule(d, d.syncTime)
	}
}

// Step implements sim.Steppable: it steps the eager devices and latches
// the deferred devices whose window closes on this tick.
func (c *Clock) Step(now, dt time.Duration) {
	if dt != c.dt {
		c.setDt(dt)
	}
	for _, d := range c.eager {
		d.Step(now, dt)
	}
	c.n++
	c.now = now + dt
	if c.n >= c.due {
		c.latch()
	}
}

// latch latches every deferred device due on this tick and finds the
// next tick one is due.
func (c *Clock) latch() {
	c.due = math.MaxInt64
	for _, d := range c.deferred {
		if d.next == c.n {
			d.latch()
		}
		c.due = min(c.due, d.next)
	}
}

// setDt replays the deferred devices' pending ticks at the old tick
// size and reschedules their latches at the new one.
func (c *Clock) setDt(dt time.Duration) {
	for _, d := range c.deferred {
		d.sync()
	}
	c.dt, c.due = dt, math.MaxInt64
	sec := dt.Seconds()
	for _, d := range c.deferred {
		d.lastDt, d.lastSec = dt, sec
		c.schedule(d, d.syncTime)
	}
}

// schedule sets d's next latch from its window time at the present
// tick count: the first tick count k with elapsed + (k − n)·dt at or
// past the interval, and at least one tick ahead.
func (c *Clock) schedule(d *Device, elapsed time.Duration) {
	if c.dt == 0 {
		return // the first Step schedules every device
	}
	ticks := int64(1)
	if left := d.interval - elapsed; left > c.dt {
		ticks = int64((left + c.dt - 1) / c.dt)
	}
	d.next = c.n + ticks
	c.due = min(c.due, d.next)
}

// nowAt returns the now of the tick after tick count k.
func (c *Clock) nowAt(k int64) time.Duration {
	return c.now - time.Duration(c.n-k)*c.dt
}

// undefer moves d from the deferred devices to the eager ones.
func (c *Clock) undefer(d *Device) {
	c.deferred = slices.DeleteFunc(c.deferred, func(e *Device) bool { return e == d })
	c.eager = append(c.eager, d)
}
