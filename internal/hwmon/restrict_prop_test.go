package hwmon_test

// Property suite for the Sec. V mitigation across hotplug. Random
// programs register sensors, restrict some to root, renumber the class
// and remove value attributes. After every step, each registered
// entry's value attributes must read as the model says: a removed one
// is missing, a restricted one is denied to an unprivileged reader and
// readable by root, and an unrestricted one is readable by anyone.
// Renumber re-adds every attribute, removed ones included, under the
// entry's recorded mode, so a restriction outlives any number of
// re-probes.

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/hwmon"
	"repro/internal/ina226"
	"repro/internal/sysfs"
)

type restrictOpKind int

const (
	opRegister restrictOpKind = iota
	opRestrict
	opRenumber
	opRemove
)

var restrictOpNames = [...]string{"register", "restrict", "renumber", "remove"}

// restrictOp is one step of a program. N is the shift (renumber) or
// picks the entry, modulo the entries registered so far (restrict,
// remove); Attr is the removed value attribute.
type restrictOp struct {
	Kind restrictOpKind
	N    int
	Attr string
}

func (o restrictOp) String() string {
	if o.Kind == opRemove {
		return fmt.Sprintf("remove(%d/%s)", o.N, o.Attr)
	}
	return fmt.Sprintf("%s(%d)", restrictOpNames[o.Kind], o.N)
}

var restrictPrograms = describedOps(check.SliceOf(check.Gen[restrictOp]{
	Generate: func(r *rand.Rand, _ int) restrictOp {
		o := restrictOp{Kind: restrictOpKind(r.Intn(len(restrictOpNames))), N: r.Intn(8)}
		switch o.Kind {
		case opRenumber:
			o.N = 1 + r.Intn(3)
		case opRemove:
			o.Attr = hwmon.ValueAttrs[r.Intn(len(hwmon.ValueAttrs))]
		}
		return o
	},
}, 1, 40))

// describedOps prints a program as its ops' String forms.
func describedOps(g check.Gen[[]restrictOp]) check.Gen[[]restrictOp] {
	g.Describe = func(ops []restrictOp) string { return fmt.Sprint(ops) }
	return g
}

// entryModel is what one entry's value attributes should read as.
type entryModel struct {
	restricted bool
	removed    map[string]bool
}

// newSensor is a sensor with a constant 1 A, 0.85 V input.
func newSensor(t *testing.T, label string) *ina226.Device {
	dev, err := ina226.New(ina226.Config{
		Label:      label,
		ShuntOhms:  0.002,
		CurrentLSB: 1e-3,
		Probe: ina226.Probe{
			CurrentAmps: func() float64 { return 1 },
			BusVolts:    func() float64 { return 0.85 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// restrictionHolds is the property, with the class renumbered by
// renumber: Subsystem.Renumber itself, or a defective double.
func restrictionHolds(t *testing.T, renumber func(*hwmon.Subsystem, int) error) func(*check.T, []restrictOp) {
	return func(ct *check.T, ops []restrictOp) {
		tree := sysfs.New()
		sub, err := hwmon.New(tree)
		if err != nil {
			ct.Fatalf("hwmon.New: %v", err)
		}
		var model []*entryModel
		renumbered, restrictedRenumbered, registeredAfterRenumber, restrictedWithGap := false, false, false, false
		for step, o := range ops {
			var err, wantErr error
			switch o.Kind {
			case opRegister:
				_, err = sub.Register(newSensor(t, fmt.Sprintf("ina226_s%d", len(model))))
				model = append(model, &entryModel{removed: map[string]bool{}})
				registeredAfterRenumber = registeredAfterRenumber || renumbered
			case opRenumber:
				err = renumber(sub, o.N)
				for _, m := range model {
					m.removed = map[string]bool{}
					restrictedRenumbered = restrictedRenumbered || m.restricted
				}
				renumbered = true
			case opRestrict, opRemove:
				if len(model) == 0 {
					continue
				}
				i := o.N % len(model)
				e := sub.Entries()[i]
				m := model[i]
				if o.Kind == opRestrict {
					err = sub.RestrictToRoot(e.Label)
					m.restricted = true
					if len(m.removed) > 0 {
						wantErr = fs.ErrNotExist
						restrictedWithGap = true
					}
				} else {
					err = tree.Remove(e.Attr(o.Attr))
					if m.removed[o.Attr] {
						wantErr = fs.ErrNotExist
					}
					m.removed[o.Attr] = true
				}
			}
			if wantErr == nil && err != nil || wantErr != nil && !errors.Is(err, wantErr) {
				ct.Fatalf("step %d %v: err %v, want %v", step, o, err, wantErr)
			}
			for i, e := range sub.Entries() {
				for _, a := range hwmon.ValueAttrs {
					checkRead(ct, tree, e.Attr(a), model[i], a, step, o)
				}
			}
		}
		ct.Classify(restrictedRenumbered, "restriction crossed a renumber")
		ct.Classify(registeredAfterRenumber, "registered after a renumber")
		ct.Classify(restrictedWithGap, "restricted with an attribute removed")
	}
}

// checkRead reads one value attribute as nobody and as root and fails
// the property where the outcome differs from the model's.
func checkRead(ct *check.T, tree *sysfs.FS, p string, m *entryModel, attr string, step int, o restrictOp) {
	var wantNobody, wantRoot error
	switch {
	case m.removed[attr]:
		wantNobody, wantRoot = fs.ErrNotExist, fs.ErrNotExist
	case m.restricted:
		wantNobody = fs.ErrPermission
	}
	for _, c := range []struct {
		cred sysfs.Cred
		want error
	}{{sysfs.Nobody, wantNobody}, {sysfs.Root, wantRoot}} {
		_, err := tree.ReadFile(c.cred, p)
		if c.want == nil && err != nil || c.want != nil && !errors.Is(err, c.want) {
			ct.Fatalf("after step %d %v: read %s as uid %d: err %v, want %v", step, o, p, c.cred.UID, err, c.want)
		}
	}
}

func TestPropRestrictionSurvivesRenumber(t *testing.T) {
	check.Forall(t, restrictPrograms, restrictionHolds(t, (*hwmon.Subsystem).Renumber))
}

// TestMutantRenumberDropsRestriction requires the property to catch a
// renumber that forgets the mitigation.
func TestMutantRenumberDropsRestriction(t *testing.T) {
	rep := check.Run(t.Name(), restrictPrograms, restrictionHolds(t, hwmon.RenumberRegisterMode), check.Iters(100))
	if rep.ConfigErr != "" {
		t.Fatal(rep.ConfigErr)
	}
	if !rep.Failed {
		t.Fatalf("a renumber that drops the restriction went unnoticed in %d programs", rep.Iters)
	}
	t.Logf("caught at program %d: %s", rep.FailIter, rep.Logs)
}
