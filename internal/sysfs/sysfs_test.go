package sysfs

import (
	"errors"
	"fmt"
	"io/fs"
	"testing"
	"testing/fstest"

	"repro/internal/obs"
)

// buildTree returns a tree with one RO and one RW attribute plus the
// value cell behind the RW attribute.
func buildTree(t *testing.T) (*FS, *string) {
	t.Helper()
	f := New()
	val := "35"
	if err := f.AddAttr("class/hwmon/hwmon0/curr1_input", Attr{
		Mode: ModeRO,
		Show: func() (string, error) { return "1234\n", nil },
	}); err != nil {
		t.Fatalf("AddAttr: %v", err)
	}
	if err := f.AddAttr("class/hwmon/hwmon0/update_interval", Attr{
		Mode:  ModeRW,
		Show:  func() (string, error) { return val, nil },
		Store: func(s string) error { val = s; return nil },
	}); err != nil {
		t.Fatalf("AddAttr: %v", err)
	}
	return f, &val
}

func TestCreds(t *testing.T) {
	if !Root.IsRoot() || Nobody.IsRoot() {
		t.Fatal("credential helpers wrong")
	}
}

func TestAddAttrValidation(t *testing.T) {
	f := New()
	if err := f.AddAttr("a/b", Attr{Mode: ModeRO}); err == nil {
		t.Fatal("missing Show accepted")
	}
	if err := f.AddAttr("a/b", Attr{Mode: ModeRW, Show: func() (string, error) { return "", nil }}); err == nil {
		t.Fatal("writable without Store accepted")
	}
	ok := Attr{Mode: ModeRO, Show: func() (string, error) { return "", nil }}
	if err := f.AddAttr("a/b", ok); err != nil {
		t.Fatalf("AddAttr: %v", err)
	}
	if err := f.AddAttr("a/b", ok); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("duplicate err = %v, want ErrExist", err)
	}
	if err := f.AddAttr("/", ok); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := f.AddAttr("../escape", ok); err == nil {
		t.Fatal("escaping path accepted")
	}
}

func TestUnprivilegedRead(t *testing.T) {
	f, _ := buildTree(t)
	got, err := f.ReadFile(Nobody, "class/hwmon/hwmon0/curr1_input")
	if err != nil {
		t.Fatalf("ReadFile as nobody: %v", err)
	}
	if got != "1234\n" {
		t.Fatalf("content = %q", got)
	}
	// Leading slash should work too.
	if _, err := f.ReadFile(Nobody, "/class/hwmon/hwmon0/curr1_input"); err != nil {
		t.Fatalf("absolute path read: %v", err)
	}
}

func TestWritePermissions(t *testing.T) {
	f, val := buildTree(t)
	p := "class/hwmon/hwmon0/update_interval"
	if err := f.WriteFile(Nobody, p, "2"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("unprivileged write err = %v, want ErrPermission", err)
	}
	if *val != "35" {
		t.Fatal("unprivileged write took effect")
	}
	if err := f.WriteFile(Root, p, "2"); err != nil {
		t.Fatalf("root write: %v", err)
	}
	if *val != "2" {
		t.Fatal("root write lost")
	}
	// RO file rejects writes even from root.
	if err := f.WriteFile(Root, "class/hwmon/hwmon0/curr1_input", "0"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("write RO err = %v, want ErrPermission", err)
	}
}

func TestSetModeMitigation(t *testing.T) {
	f, _ := buildTree(t)
	p := "class/hwmon/hwmon0/curr1_input"
	if err := f.SetMode(p, ModeRootOnly); err != nil {
		t.Fatalf("SetMode: %v", err)
	}
	if _, err := f.ReadFile(Nobody, p); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("nobody read after mitigation err = %v, want ErrPermission", err)
	}
	if _, err := f.ReadFile(Root, p); err != nil {
		t.Fatalf("root read after mitigation: %v", err)
	}
	if err := f.SetMode("class/hwmon", ModeRO); err == nil {
		t.Fatal("SetMode on directory accepted")
	}
	if err := f.SetMode("no/such/file", ModeRO); err == nil {
		t.Fatal("SetMode on missing file accepted")
	}
	// Making an attribute writable without a Store must be refused.
	if err := f.SetMode(p, ModeRW); err == nil {
		t.Fatal("SetMode to writable without Store accepted")
	}
}

func TestNotExistAndDirErrors(t *testing.T) {
	f, _ := buildTree(t)
	if _, err := f.ReadFile(Nobody, "class/hwmon/hwmon9/curr1_input"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing read err = %v, want ErrNotExist", err)
	}
	if _, err := f.ReadFile(Nobody, "class/hwmon"); err == nil {
		t.Fatal("reading a directory accepted")
	}
	if err := f.WriteFile(Root, "class/hwmon", "x"); err == nil {
		t.Fatal("writing a directory accepted")
	}
	if _, err := f.ReadDir("class/hwmon/hwmon0/curr1_input"); err == nil {
		t.Fatal("ReadDir on file accepted")
	}
}

func TestReadDirSorted(t *testing.T) {
	f, _ := buildTree(t)
	names, err := f.ReadDir("class/hwmon/hwmon0")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(names) != 2 || names[0] != "curr1_input" || names[1] != "update_interval" {
		t.Fatalf("names = %v", names)
	}
}

func TestExists(t *testing.T) {
	f, _ := buildTree(t)
	if !f.Exists("class/hwmon/hwmon0") || !f.Exists("class/hwmon/hwmon0/curr1_input") {
		t.Fatal("Exists false negative")
	}
	if f.Exists("nope") {
		t.Fatal("Exists false positive")
	}
}

func TestMkdirAllOverFile(t *testing.T) {
	f, _ := buildTree(t)
	if err := f.MkdirAll("class/hwmon/hwmon0/curr1_input/sub"); err == nil {
		t.Fatal("MkdirAll through a file accepted")
	}
	// Idempotent on directories.
	if err := f.MkdirAll("class/hwmon"); err != nil {
		t.Fatalf("MkdirAll existing: %v", err)
	}
}

func TestFSViewConformance(t *testing.T) {
	f, _ := buildTree(t)
	fsys := f.As(Nobody)
	if err := fstest.TestFS(fsys,
		"class/hwmon/hwmon0/curr1_input",
		"class/hwmon/hwmon0/update_interval"); err != nil {
		t.Fatalf("TestFS: %v", err)
	}
}

func TestFSViewGlob(t *testing.T) {
	f := New()
	for i := 0; i < 3; i++ {
		err := f.AddAttr(fmt.Sprintf("class/hwmon/hwmon%d/curr1_input", i), Attr{
			Mode: ModeRO, Show: func() (string, error) { return "1", nil },
		})
		if err != nil {
			t.Fatalf("AddAttr: %v", err)
		}
	}
	matches, err := fs.Glob(f.As(Nobody), "class/hwmon/hwmon*/curr1_input")
	if err != nil {
		t.Fatalf("Glob: %v", err)
	}
	if len(matches) != 3 {
		t.Fatalf("Glob matches = %v", matches)
	}
}

func TestFSViewPermission(t *testing.T) {
	f, _ := buildTree(t)
	if err := f.SetMode("class/hwmon/hwmon0/curr1_input", ModeRootOnly); err != nil {
		t.Fatalf("SetMode: %v", err)
	}
	if _, err := fs.ReadFile(f.As(Nobody), "class/hwmon/hwmon0/curr1_input"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("view read err = %v, want ErrPermission", err)
	}
	if _, err := fs.ReadFile(f.As(Root), "class/hwmon/hwmon0/curr1_input"); err != nil {
		t.Fatalf("root view read: %v", err)
	}
}

func TestViewShowErrorPropagates(t *testing.T) {
	f := New()
	boom := errors.New("sensor offline")
	if err := f.AddAttr("a/bad", Attr{Mode: ModeRO, Show: func() (string, error) { return "", boom }}); err != nil {
		t.Fatalf("AddAttr: %v", err)
	}
	if _, err := f.ReadFile(Nobody, "a/bad"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sensor offline", err)
	}
	if _, err := f.As(Nobody).Open("a/bad"); err == nil {
		t.Fatal("Open on failing Show accepted")
	}
}

func TestLiveAttrReflectsState(t *testing.T) {
	f := New()
	n := 0
	if err := f.AddAttr("live", Attr{Mode: ModeRO, Show: func() (string, error) {
		n++
		return fmt.Sprintf("%d", n), nil
	}}); err != nil {
		t.Fatalf("AddAttr: %v", err)
	}
	a, _ := f.ReadFile(Nobody, "live")
	b, _ := f.ReadFile(Nobody, "live")
	if a == b {
		t.Fatalf("attribute not live: %q == %q", a, b)
	}
}

// TestReadCountersOnTally: a tree's read counters publish at once
// until it is handed a tally; then reads made inside a batch on that
// tally publish when the batch ends, the per-attribute counter
// included, and a tally handed over later takes the per-attribute
// counter too.
func TestReadCountersOnTally(t *testing.T) {
	f, _ := buildTree(t)
	reads, bytes := obs.C("sysfs.reads"), obs.C("sysfs.read_bytes")
	attr := obs.C("sysfs.reads.curr1_input")
	want := func(step string, r, b, a int64) {
		t.Helper()
		if reads.Value() != r || bytes.Value() != b || attr.Value() != a {
			t.Fatalf("%s: reads %d bytes %d curr1_input %d, want %d %d %d",
				step, reads.Value(), bytes.Value(), attr.Value(), r, b, a)
		}
	}
	r0, b0, a0 := reads.Value(), bytes.Value(), attr.Value()
	read := func() {
		if _, err := f.ReadFile(Nobody, "class/hwmon/hwmon0/curr1_input"); err != nil {
			t.Fatal(err)
		}
	}
	read()
	want("without a tally", r0+1, b0+5, a0+1)
	for i, tally := range []*obs.Tally{new(obs.Tally), new(obs.Tally)} {
		f.SetTally(tally)
		opened := tally.Begin()
		read()
		want(fmt.Sprintf("tally %d, inside a batch", i), r0+1+int64(i), b0+5+5*int64(i), a0+1+int64(i))
		tally.End(opened)
		want(fmt.Sprintf("tally %d, after the batch", i), r0+2+int64(i), b0+10+5*int64(i), a0+2+int64(i))
	}
}
