package ina226

import (
	"testing"
	"time"
)

func TestSkipLatchKeepsRegistersStale(t *testing.T) {
	d := newDev(t, 2, 0.85)
	run(d, 40*time.Millisecond) // first latch
	if d.Updates() != 1 {
		t.Fatalf("updates = %d after one interval, want 1", d.Updates())
	}
	before := d.Read()

	// Raise the analog input but skip every latch: registers and update
	// counter must not move.
	d.probe.CurrentAmps = func() float64 { return 4 }
	skips := 0
	d.SetFaults(FaultHooks{SkipLatch: func() bool { skips++; return true }})
	run(d, 80*time.Millisecond)
	if skips == 0 {
		t.Fatal("SkipLatch never consulted")
	}
	after := d.Read()
	if after.Updates != before.Updates || after.CurrentAmps != before.CurrentAmps {
		t.Fatalf("registers moved under skipped latches: %+v -> %+v", before, after)
	}

	// Clearing the hooks lets the next latch catch up to the new input.
	d.SetFaults(FaultHooks{})
	run(d, 40*time.Millisecond)
	final := d.Read()
	if final.Updates <= after.Updates {
		t.Fatal("updates did not resume after clearing the fault")
	}
	if final.CurrentAmps <= before.CurrentAmps {
		t.Fatalf("current still stale after recovery: %v", final.CurrentAmps)
	}
}

func TestCorruptLatchMutatesOneRegister(t *testing.T) {
	clean := newDev(t, 2, 0.85)
	run(clean, 40*time.Millisecond)

	dirty := newDev(t, 2, 0.85)
	dirty.SetFaults(FaultHooks{FlipLatch: func() LatchedRegs {
		return LatchedRegs{Current: 1 << 9}
	}})
	run(dirty, 40*time.Millisecond)

	if clean.RegCurrent() == dirty.RegCurrent() {
		t.Fatal("corrupted latch equals the clean one")
	}
	if got, want := dirty.RegCurrent(), clean.RegCurrent()^(1<<9); got != want {
		t.Fatalf("current reg = %d, want %d (bit 9 flipped)", got, want)
	}
	// The corruption happens at the latch: the next clean latch heals it.
	dirty.SetFaults(FaultHooks{})
	run(dirty, 40*time.Millisecond)
	if clean.RegCurrent() != dirty.RegCurrent() {
		t.Fatal("corruption survived a clean latch")
	}
}
