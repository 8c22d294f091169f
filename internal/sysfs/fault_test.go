package sysfs

import (
	"errors"
	"io/fs"
	"testing"
)

func TestSetReadFault(t *testing.T) {
	f, _ := buildTree(t)
	const attr = "class/hwmon/hwmon0/curr1_input"
	eagain := errors.New("resource temporarily unavailable")

	var seen []string
	f.SetReadFault(func(path string) func() error {
		if path != attr {
			return nil
		}
		return func() error {
			seen = append(seen, path)
			return eagain
		}
	})

	if _, err := f.ReadFile(Nobody, attr); !errors.Is(err, eagain) {
		t.Fatalf("faulted read err = %v, want the injected error", err)
	}
	if len(seen) != 1 || seen[0] != attr {
		t.Fatalf("hook saw paths %v, want exactly [%s]", seen, attr)
	}
	// Another attribute passes through the nil return.
	if _, err := f.ReadFile(Nobody, "class/hwmon/hwmon0/update_interval"); err != nil {
		t.Fatalf("non-matching read failed: %v", err)
	}
	// Removing the hook restores clean reads.
	f.SetReadFault(nil)
	if v, err := f.ReadFile(Nobody, attr); err != nil || v != "1234\n" {
		t.Fatalf("read after hook removal = (%q, %v)", v, err)
	}
}

func TestReadFaultRunsAfterPermissionAndExistenceChecks(t *testing.T) {
	f, _ := buildTree(t)
	calls := 0
	f.SetReadFault(func(string) func() error {
		return func() error { calls++; return errors.New("EIO") }
	})

	if _, err := f.ReadFile(Nobody, "class/hwmon/hwmon9/curr1_input"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing attr err = %v, want ErrNotExist", err)
	}
	if err := f.SetMode("class/hwmon/hwmon0/curr1_input", 0o400); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(Nobody, "class/hwmon/hwmon0/curr1_input"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("restricted attr err = %v, want ErrPermission", err)
	}
	if calls != 0 {
		t.Errorf("fault hook ran %d times on denied/missing reads; it must model a failing show(), not override ENOENT/EPERM", calls)
	}
}
