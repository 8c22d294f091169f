package obs

import "testing"

// TestTally pins the batching contract: outside a batch an Add
// publishes at once; inside one it is pending until the End that
// closes the batch publishes it, once; a nested Begin neither opens nor
// publishes; and a nil tally publishes every Add at once.
func TestTally(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("a"), r.Counter("b")
	var tl Tally
	sa, sb := tl.Slot(a), tl.Slot(b)
	if tl.Slot(a) != sa {
		t.Fatal("a counter added twice got a second slot")
	}
	want := func(step string, va, vb int64) {
		t.Helper()
		if a.Value() != va || b.Value() != vb {
			t.Fatalf("%s: a=%d b=%d, want %d %d", step, a.Value(), b.Value(), va, vb)
		}
	}
	tl.Add(sa, 2)
	want("outside a batch", 2, 0)

	opened := tl.Begin()
	tl.Add(sa, 3)
	tl.Add(sb, 1)
	inner := tl.Begin()
	tl.Add(sb, 4)
	tl.End(inner)
	if !opened || inner {
		t.Fatalf("Begin reported %v then %v, want true then false", opened, inner)
	}
	want("inside a batch", 2, 0)
	tl.End(opened)
	want("after End", 5, 5)
	tl.End(opened)
	want("after a second End", 5, 5)

	var nilTally *Tally
	s := nilTally.Slot(b)
	nilTally.Add(s, 7)
	want("on a nil tally", 5, 12)
}

// TestTallyEndInDefer: a batch ended from a defer publishes what it
// counted before its work panicked.
func TestTallyEndInDefer(t *testing.T) {
	c := NewRegistry().Counter("c")
	var tl Tally
	s := tl.Slot(c)
	func() {
		defer func() { _ = recover() }()
		defer tl.End(tl.Begin())
		tl.Add(s, 3)
		panic("step failed")
	}()
	if c.Value() != 3 {
		t.Fatalf("counter = %d after a panicking batch, want 3", c.Value())
	}
	tl.Add(s, 1)
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4: the batch stayed open", c.Value())
	}
}
