package ina226

// Unsynced runs f with d's pending ticks hidden from sync, so the
// accessors f calls behave as if their sync() call were deleted. The
// deferred-device mutant test uses it to prove the differential suite
// notices a missing sync.
func Unsynced(d *Device, f func()) {
	pend := d.pend
	d.pend = 0
	f()
	d.pend = pend
}

// ReplayLate runs f with d's replay clock one tick late, so a sync
// inside f steps the probe's upstream at each pending tick's
// successor's now. The deferred-device mutant test uses it to prove the
// differential suite notices a replay with the wrong now.
func ReplayLate(d *Device, f func()) {
	if d.pend == 0 {
		f()
		return
	}
	d.pendNow += d.lastDt
	f()
	if d.pend > 0 {
		d.pendNow -= d.lastDt
	}
}
