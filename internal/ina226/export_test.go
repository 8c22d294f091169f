package ina226

import (
	"time"

	"repro/internal/sim"
)

// The mutants below break a deferred device one way at a time, so the
// differential suites can prove they notice. Each emulates a defect in
// the code it names by adjusting the device's or clock's state around
// the correct code.

// Unsynced runs f with d's pending ticks hidden from sync, so the
// accessors f calls behave as if their sync() call were deleted.
func Unsynced(d *Device, f func()) {
	if !d.deferred {
		f()
		return
	}
	tick := d.syncTick
	d.syncTick = d.clock.n
	f()
	d.syncTick = tick
}

// ReplayLate runs f with d's replay clock one tick late, so a sync
// inside f steps the probe's upstream at each pending tick's
// successor's now.
func ReplayLate(d *Device, f func()) {
	if d.pending() == 0 {
		f()
		return
	}
	c := d.clock
	c.now += c.dt
	f()
	c.now -= c.dt
}

// SyncLoadsTwice is Sync reading the pending ticks off the clock twice:
// the first read claims them, so the second finds none and the replay
// is skipped.
func SyncLoadsTwice(d *Device) int {
	n := d.pending()
	if n > 0 {
		d.syncTick = d.clock.n
	}
	d.sync()
	return n
}

// NoReschedule runs f, which may change d's update window, and then
// puts d's next latch back where it was, as if the window change did
// not reschedule it.
func NoReschedule(d *Device, f func()) {
	next := d.next
	f()
	if d.deferred {
		d.next = next
	}
}

// UndeferUnsettled is Undefer without settling the window: the eager
// device's window clock keeps the value it had while deferred instead
// of the replay's.
func UndeferUnsettled(d *Device) {
	acc := d.accTime
	d.Undefer()
	d.accTime = acc
}

// LatchLate returns c as a Steppable that latches every deferred
// device one tick after its window closes, as a clock comparing the
// tick count before advancing it would.
func LatchLate(c *Clock) sim.Steppable {
	late := make(map[*Device]int64)
	return sim.StepFunc(func(now, dt time.Duration) {
		for _, d := range c.deferred {
			if d.next == c.n+1 && late[d] != d.next {
				d.next++
				late[d] = d.next
			}
		}
		c.Step(now, dt)
	})
}

// TicksToLatch returns how many ticks of dt an eager device steps
// until its present window closes, the latch tick included.
func TicksToLatch(d *Device, dt time.Duration) int {
	left := d.interval - d.accTime
	if left <= dt {
		return 1
	}
	return int((left + dt - 1) / dt)
}
