package sysfs

import (
	"errors"
	"io/fs"
	"testing"
)

// TestFileFollowsThePath pins the bound file to path-walk semantics: a
// replaced attribute is read at its new node, a removed one fails like
// ReadFile, and a failed walk is retried on the next read.
func TestFileFollowsThePath(t *testing.T) {
	f, _ := buildTree(t)
	const p = "class/hwmon/hwmon0/curr1_input"
	file := f.Bind(p)
	if v, err := file.Read(Nobody); err != nil || v != "1234\n" {
		t.Fatalf("first read = (%q, %v)", v, err)
	}

	if err := f.Remove("class/hwmon/hwmon0"); err != nil {
		t.Fatal(err)
	}
	_, err := file.Read(Nobody)
	_, want := f.ReadFile(Nobody, p)
	if !errors.Is(err, fs.ErrNotExist) || err.Error() != want.Error() {
		t.Fatalf("read after remove: err %v, ReadFile %v", err, want)
	}

	if err := f.AddAttr(p, Attr{Mode: ModeRO, Show: func() (string, error) { return "99\n", nil }}); err != nil {
		t.Fatal(err)
	}
	if v, err := file.Read(Nobody); err != nil || v != "99\n" {
		t.Fatalf("read after re-adding the path = (%q, %v), want the new attribute", v, err)
	}

	// A mode change acts on the node the file holds.
	if err := f.SetMode(p, ModeRootOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := file.Read(Nobody); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("read of a root-only attribute: err %v, want ErrPermission", err)
	}
}

// TestFileBindsTheFaultHookPerWalk pins where the read-fault binder
// runs: once per walk for a File, after every SetReadFault, and on
// every read for ReadFile.
func TestFileBindsTheFaultHookPerWalk(t *testing.T) {
	f, _ := buildTree(t)
	const p = "class/hwmon/hwmon0/curr1_input"
	binds, hooks := 0, 0
	bind := func(string) func() error {
		binds++
		return func() error { hooks++; return nil }
	}
	f.SetReadFault(bind)
	file := f.Bind(p)
	for i := 0; i < 3; i++ {
		if _, err := file.Read(Nobody); err != nil {
			t.Fatal(err)
		}
	}
	if binds != 1 || hooks != 3 {
		t.Fatalf("bound file: %d binds, %d hook calls; want 1, 3", binds, hooks)
	}

	f.SetReadFault(nil)
	if _, err := file.Read(Nobody); err != nil || hooks != 3 {
		t.Fatalf("read after removing the binder: err %v, %d hook calls", err, hooks)
	}
	f.SetReadFault(bind)
	if _, err := file.Read(Nobody); err != nil || binds != 2 || hooks != 4 {
		t.Fatalf("read after re-installing the binder: err %v, %d binds, %d hook calls", err, binds, hooks)
	}

	for i := 0; i < 2; i++ {
		if _, err := f.ReadFile(Nobody, p); err != nil {
			t.Fatal(err)
		}
	}
	if binds != 4 || hooks != 6 {
		t.Fatalf("ReadFile: %d binds, %d hook calls; want 4, 6", binds, hooks)
	}
}
