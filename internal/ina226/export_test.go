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
