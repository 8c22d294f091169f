package hwmon

import (
	"fmt"

	"repro/internal/sysfs"
)

// RenumberRegisterMode is the defect RestrictToRoot once had with
// Renumber: it re-adds each value attribute with the mode Register
// gave it, as a bare chmod is lost when a device re-probes.
func RenumberRegisterMode(s *Subsystem, n int) error {
	for _, e := range s.entries {
		if err := s.fs.Remove(e.Dir); err != nil {
			return err
		}
	}
	for _, e := range s.entries {
		e.Index += n
		e.Dir = fmt.Sprintf("%s/hwmon%d", ClassDir, e.Index)
		for name, a := range e.attrs {
			for _, v := range ValueAttrs {
				if name == v {
					a.Mode = sysfs.ModeRO
				}
			}
			if err := s.fs.AddAttr(e.Attr(name), a); err != nil {
				return err
			}
		}
	}
	return nil
}
