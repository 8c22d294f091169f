// Package sysfs implements an in-memory model of the Linux sysfs
// attribute tree, with the permission semantics the AmpereBleed threat
// model depends on: attribute files are world-readable (an unprivileged
// process can poll sensor readings) while writes — such as changing an
// INA226 update interval — require root.
//
// Attributes are backed by callbacks rather than stored bytes, so every
// read observes the live state of the simulated hardware, exactly like a
// real sysfs show() method. The tree also exposes a standard io/fs view
// (As) so discovery code can use fs.Glob/fs.WalkDir unchanged.
//
// A sampling loop polls one attribute path for the whole capture, so it
// reads through a File (Bind): the path is walked again only after the
// tree's structure has changed since the last walk, never on a read in
// between.
package sysfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Cred identifies the caller for permission checks.
type Cred struct {
	// UID is the caller's user id; 0 is root.
	UID int
}

// Root is the superuser credential.
var Root = Cred{UID: 0}

// Nobody is an arbitrary unprivileged credential, the attacker's
// vantage point.
var Nobody = Cred{UID: 1000}

// IsRoot reports whether the credential is the superuser.
func (c Cred) IsRoot() bool { return c.UID == 0 }

// Attr is one sysfs attribute file.
type Attr struct {
	// Mode carries the permission bits; only the 0444 read bits and 0200
	// owner-write bit are honoured (sysfs files are root-owned).
	Mode fs.FileMode
	// Show produces the file contents. Required.
	Show func() (string, error)
	// Store consumes a write. Required iff the mode has a write bit.
	Store func(string) error
}

// Common attribute modes.
const (
	// ModeRO is a world-readable attribute (0444), like curr1_input.
	ModeRO fs.FileMode = 0o444
	// ModeRW is world-readable but root-writable (0644), like
	// update_interval.
	ModeRW fs.FileMode = 0o644
	// ModeRootOnly is readable by root only (0400); the mitigation
	// experiment flips sensitive attributes to this mode.
	ModeRootOnly fs.FileMode = 0o400
)

type node struct {
	name     string
	attr     *Attr            // nil for directories
	children map[string]*node // nil for files

	// readSlot is this attribute's per-basename read counter
	// ("sysfs.reads.curr1_input", ...) on the tree's tally, the zero
	// Slot until the first successful read registers it, keeping the
	// metric absent until the attribute is actually read.
	readSlot obs.Slot
}

func (n *node) isDir() bool { return n.attr == nil }

// FS is an in-memory sysfs tree.
type FS struct {
	root *node

	// readFault, when set, binds the read-fault hook of a path: the
	// hook it returns (nil for a path that never faults) is consulted
	// on every permitted read of that path before the Show callback
	// runs, and a non-nil return is surfaced to the reader in place of
	// the contents. It models the transient EAGAIN/EIO failures real
	// hwmon reads exhibit on PetaLinux (the fault-injection layer
	// installs it; see internal/faults).
	readFault func(path string) func() error

	// gen counts structural changes: every node added or removed, and
	// every SetReadFault. A File re-walks its path, and re-binds its
	// fault hook, only when gen has moved since its last walk.
	gen uint64

	// Read-side observability: every attacker measurement is a sysfs
	// read, so these counters are the ground truth of how much sensor
	// data the unprivileged side actually obtained. The read and byte
	// counts and the per-attribute ones (see node.readSlot) go through
	// tally: a board's engine's, which publishes a run's reads when the
	// run returns, or nil on a tree with no engine, where every read
	// publishes at once.
	tally      *obs.Tally
	reads      obs.Slot
	readBytes  obs.Slot
	obsDenied  *obs.Counter
	obsWrites  *obs.Counter
	obsMissing *obs.Counter
	obsFaulted *obs.Counter
}

// New returns an empty tree.
func New() *FS {
	f := &FS{
		root:       &node{name: ".", children: make(map[string]*node)},
		obsDenied:  obs.C("sysfs.denied"),
		obsWrites:  obs.C("sysfs.writes"),
		obsMissing: obs.C("sysfs.not_exist"),
		obsFaulted: obs.C("sysfs.read_faults"),
	}
	f.SetTally(nil)
	return f
}

// SetTally counts the tree's reads on t, the tally of the engine whose
// runs read the tree; nil publishes every read at once.
func (f *FS) SetTally(t *obs.Tally) {
	f.tally = t
	f.reads = t.Slot(obs.C("sysfs.reads"))
	f.readBytes = t.Slot(obs.C("sysfs.read_bytes"))
	forgetSlots(f.root)
}

// forgetSlots drops the read slots below n, which belong to the tally
// the tree had before.
func forgetSlots(n *node) {
	n.readSlot = obs.Slot{}
	for _, c := range n.children {
		forgetSlots(c)
	}
}

// SetReadFault installs (or, with nil, removes) the transient-read-
// failure binder. bind(path) returns the hook for reads of path, or nil
// for a path it never faults; a File calls it once per walk, ReadFile
// and the io/fs view once per read. The hook runs after permission
// checks succeed, exactly where a real sysfs show() method can fail
// with EAGAIN or EIO.
func (f *FS) SetReadFault(bind func(path string) func() error) {
	f.readFault = bind
	f.gen++
}

// bindFault returns the read-fault hook of path p, or nil.
func (f *FS) bindFault(p string) func() error {
	if f.readFault == nil {
		return nil
	}
	return f.readFault(p)
}

// injectReadFault runs a bound hook for one permitted read.
func (f *FS) injectReadFault(hook func() error) error {
	if hook == nil {
		return nil
	}
	if err := hook(); err != nil {
		f.obsFaulted.Inc()
		return err
	}
	return nil
}

// countRead records one successful read of size bytes from attribute
// node n. The per-basename counter is resolved through the global
// registry once per node and tally and cached on the node.
func (f *FS) countRead(n *node, size int) {
	t := f.tally
	t.Add(f.reads, 1)
	t.Add(f.readBytes, int64(size))
	if n.readSlot == (obs.Slot{}) {
		n.readSlot = t.Slot(obs.C("sysfs.reads." + n.name))
	}
	t.Add(n.readSlot, 1)
}

func splitPath(p string) ([]string, error) {
	// Strip every leading slash: TrimPrefix alone would leave "//x" as
	// "/x", which path.Clean keeps absolute and the component walk below
	// would then see an empty first element.
	clean := path.Clean(strings.TrimLeft(p, "/"))
	if clean == "." || clean == "" {
		return nil, nil
	}
	// Reject only a leading ".." component; names that merely start with
	// two dots (e.g. "..data") are valid.
	if clean == ".." || strings.HasPrefix(clean, "../") {
		return nil, fmt.Errorf("sysfs: path escapes root: %q", p)
	}
	return strings.Split(clean, "/"), nil
}

// resolveFast walks a path that is already in canonical relative form —
// no leading slash, no empty/"."/".." segments — without allocating.
// That covers the paths discovery reads and the paths probes bind
// (e.g. "class/hwmon/hwmon0/curr1_input"), whose File re-walks them
// here after each structural change. It reports false whenever the walk
// cannot be completed losslessly (path needs cleaning, component
// missing, file in the middle), letting the caller fall back to the
// slow path for canonicalization and error reporting.
func (f *FS) resolveFast(p string) (*node, bool) {
	if p == "" || p[0] == '/' {
		return nil, false
	}
	n := f.root
	for start := 0; start <= len(p); {
		end := strings.IndexByte(p[start:], '/')
		var seg string
		if end < 0 {
			seg = p[start:]
			start = len(p) + 1
		} else {
			seg = p[start : start+end]
			start += end + 1
		}
		if seg == "" || seg == "." || seg == ".." {
			return nil, false // needs path.Clean / escape check
		}
		if !n.isDir() {
			return nil, false // slow path produces the canonical error
		}
		child, ok := n.children[seg]
		if !ok {
			return nil, false
		}
		n = child
	}
	return n, true
}

func (f *FS) resolve(p string) (*node, error) {
	if n, ok := f.resolveFast(p); ok {
		return n, nil
	}
	parts, err := splitPath(p)
	if err != nil {
		return nil, err
	}
	n := f.root
	for _, part := range parts {
		if !n.isDir() {
			return nil, fmt.Errorf("sysfs: %s: %w", p, fs.ErrNotExist)
		}
		child, ok := n.children[part]
		if !ok {
			return nil, fmt.Errorf("sysfs: %s: %w", p, fs.ErrNotExist)
		}
		n = child
	}
	return n, nil
}

// MkdirAll creates a directory path, like os.MkdirAll.
func (f *FS) MkdirAll(p string) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	n := f.root
	for _, part := range parts {
		child, ok := n.children[part]
		if !ok {
			child = &node{name: part, children: make(map[string]*node)}
			n.children[part] = child
			f.gen++
		}
		if !child.isDir() {
			return fmt.Errorf("sysfs: %s: not a directory", p)
		}
		n = child
	}
	return nil
}

// AddAttr registers an attribute file at p, creating parent directories.
func (f *FS) AddAttr(p string, a Attr) error {
	if a.Show == nil {
		return fmt.Errorf("sysfs: %s: attribute needs a Show callback", p)
	}
	if a.Mode&0o222 != 0 && a.Store == nil {
		return fmt.Errorf("sysfs: %s: writable mode without Store callback", p)
	}
	dir, name := path.Split(strings.TrimLeft(p, "/"))
	if name == "" {
		return fmt.Errorf("sysfs: %s: empty file name", p)
	}
	if name == "." || name == ".." {
		// Would register fine but never resolve back: path cleaning folds
		// the segment away before lookup.
		return fmt.Errorf("sysfs: %s: invalid file name %q", p, name)
	}
	if err := f.MkdirAll(dir); err != nil {
		return err
	}
	parent, err := f.resolve(dir)
	if err != nil {
		return err
	}
	if _, exists := parent.children[name]; exists {
		return fmt.Errorf("sysfs: %s: %w", p, fs.ErrExist)
	}
	parent.children[name] = &node{name: name, attr: &a}
	f.gen++
	return nil
}

// Remove deletes an attribute file or a whole directory subtree —
// the disappearing half of a hotplug event. Removing the root is
// rejected; removing a missing path reports fs.ErrNotExist.
func (f *FS) Remove(p string) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("sysfs: cannot remove root")
	}
	dir := strings.Join(parts[:len(parts)-1], "/")
	parent, err := f.resolve(dir)
	if err != nil {
		return err
	}
	name := parts[len(parts)-1]
	if !parent.isDir() {
		return fmt.Errorf("sysfs: %s: not a directory", dir)
	}
	if _, ok := parent.children[name]; !ok {
		return fmt.Errorf("sysfs: %s: %w", p, fs.ErrNotExist)
	}
	delete(parent.children, name)
	f.gen++
	return nil
}

// SetMode changes the permission bits of an existing attribute; this is
// the mitigation hook (Sec. V: restrict sensor access to root).
func (f *FS) SetMode(p string, mode fs.FileMode) error {
	n, err := f.resolve(p)
	if err != nil {
		return err
	}
	if n.isDir() {
		return fmt.Errorf("sysfs: %s: is a directory", p)
	}
	if mode&0o222 != 0 && n.attr.Store == nil {
		return fmt.Errorf("sysfs: %s: cannot make writable without Store", p)
	}
	n.attr.Mode = mode
	return nil
}

// ReadFile reads an attribute as the given credential, walking the
// path on every call.
func (f *FS) ReadFile(c Cred, p string) (string, error) {
	n, err := f.lookup(p)
	if err != nil {
		return "", err
	}
	return f.read(c, p, n, f.bindFault(p))
}

// lookup is resolve for a read: a failed walk counts as
// sysfs.not_exist.
func (f *FS) lookup(p string) (*node, error) {
	n, err := f.resolve(p)
	if err != nil {
		f.obsMissing.Inc()
	}
	return n, err
}

// read is the body every attribute read shares once its path has
// resolved to n: the is-directory and permission checks, the fault
// hook bound to p, then Show and the read counters.
func (f *FS) read(c Cred, p string, n *node, fault func() error) (string, error) {
	if n.isDir() {
		return "", fmt.Errorf("sysfs: %s: is a directory", p)
	}
	if !readable(c, n.attr.Mode) {
		f.obsDenied.Inc()
		return "", fmt.Errorf("sysfs: read %s: %w", p, fs.ErrPermission)
	}
	if err := f.injectReadFault(fault); err != nil {
		return "", fmt.Errorf("sysfs: read %s: %w", p, err)
	}
	out, err := n.attr.Show()
	if err == nil {
		f.countRead(n, len(out))
	}
	return out, err
}

// File is one attribute path bound to the tree for repeated reads, a
// sampling loop's open file. It keeps the node its path last resolved
// to and that path's fault hook, and walks the path again only when the
// tree's structure has changed since (see FS.gen). A failed walk is
// never kept: the next read walks again. Reads are exactly ReadFile's —
// same node, same errors, same counters and fault draws — because a
// node can only stop being the one a path names when a node is added
// or removed, and a permission change acts on the node itself. A File
// is not safe for concurrent use.
type File struct {
	fsys  *FS
	path  string
	gen   uint64
	node  *node // nil until a walk succeeds
	fault func() error
}

// Bind returns a File reading path p. Nothing is walked until the
// first Read.
func (f *FS) Bind(p string) *File { return &File{fsys: f, path: p} }

// Read reads the attribute as the given credential.
func (b *File) Read(c Cred) (string, error) {
	f := b.fsys
	if b.node == nil || b.gen != f.gen {
		n, err := f.lookup(b.path)
		if err != nil {
			b.node = nil
			return "", err
		}
		b.node, b.gen, b.fault = n, f.gen, f.bindFault(b.path)
	}
	return f.read(c, b.path, b.node, b.fault)
}

// WriteFile writes an attribute as the given credential.
func (f *FS) WriteFile(c Cred, p, value string) error {
	n, err := f.resolve(p)
	if err != nil {
		return err
	}
	if n.isDir() {
		return fmt.Errorf("sysfs: %s: is a directory", p)
	}
	if !writable(c, n.attr.Mode) {
		f.obsDenied.Inc()
		return fmt.Errorf("sysfs: write %s: %w", p, fs.ErrPermission)
	}
	if n.attr.Store == nil {
		return fmt.Errorf("sysfs: write %s: %w", p, errors.ErrUnsupported)
	}
	err = n.attr.Store(value)
	if err == nil {
		f.obsWrites.Inc()
	}
	return err
}

// ReadDir lists a directory, sorted by name.
func (f *FS) ReadDir(p string) ([]string, error) {
	n, err := f.resolve(p)
	if err != nil {
		return nil, err
	}
	if !n.isDir() {
		return nil, fmt.Errorf("sysfs: %s: not a directory", p)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Exists reports whether a path resolves.
func (f *FS) Exists(p string) bool {
	_, err := f.resolve(p)
	return err == nil
}

// sysfs files are owned by root; "group" bits are treated like other.
func readable(c Cred, m fs.FileMode) bool {
	if c.IsRoot() {
		return m&0o444 != 0
	}
	return m&0o004 != 0
}

func writable(c Cred, m fs.FileMode) bool {
	if c.IsRoot() {
		return m&0o222 != 0
	}
	return m&0o002 != 0
}

// As returns a read-only io/fs view of the tree with the given
// credential; reads through the view hit the same permission checks as
// ReadFile. It supports fs.ReadDirFS and fs.ReadFileFS, so fs.Glob and
// fs.WalkDir work for sensor discovery.
func (f *FS) As(c Cred) fs.FS { return &view{fsys: f, cred: c} }

type view struct {
	fsys *FS
	cred Cred
}

func (v *view) Open(name string) (fs.File, error) {
	if !fs.ValidPath(name) {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrInvalid}
	}
	n, err := v.fsys.resolve(name)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	if n.isDir() {
		entries, _ := v.fsys.ReadDir(name)
		return &dirFile{node: n, entries: entries, fsys: v.fsys, path: name}, nil
	}
	if !readable(v.cred, n.attr.Mode) {
		v.fsys.obsDenied.Inc()
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrPermission}
	}
	if err := v.fsys.injectReadFault(v.fsys.bindFault(name)); err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	content, err := n.attr.Show()
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	v.fsys.countRead(n, len(content))
	return &attrFile{node: n, Reader: bytes.NewReader([]byte(content))}, nil
}

func (v *view) ReadFile(name string) ([]byte, error) {
	if !fs.ValidPath(name) {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrInvalid}
	}
	s, err := v.fsys.ReadFile(v.cred, name)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

func (v *view) ReadDir(name string) ([]fs.DirEntry, error) {
	if !fs.ValidPath(name) {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrInvalid}
	}
	names, err := v.fsys.ReadDir(name)
	if err != nil {
		return nil, err
	}
	n, _ := v.fsys.resolve(name)
	out := make([]fs.DirEntry, 0, len(names))
	for _, childName := range names {
		out = append(out, fs.FileInfoToDirEntry(infoFor(n.children[childName])))
	}
	return out, nil
}

type nodeInfo struct {
	name string
	size int64
	mode fs.FileMode
}

func (i nodeInfo) Name() string       { return i.name }
func (i nodeInfo) Size() int64        { return i.size }
func (i nodeInfo) Mode() fs.FileMode  { return i.mode }
func (i nodeInfo) ModTime() time.Time { return time.Time{} }
func (i nodeInfo) IsDir() bool        { return i.mode.IsDir() }
func (i nodeInfo) Sys() any           { return nil }

func infoFor(n *node) fs.FileInfo {
	if n.isDir() {
		return nodeInfo{name: n.name, mode: fs.ModeDir | 0o555}
	}
	return nodeInfo{name: n.name, mode: n.attr.Mode}
}

type attrFile struct {
	node *node
	*bytes.Reader
}

// Stat reports size 0 like real sysfs attributes, whose size is unknown
// until read; it also keeps DirEntry.Info and File.Stat consistent.
func (f *attrFile) Stat() (fs.FileInfo, error) {
	return infoFor(f.node), nil
}
func (f *attrFile) Close() error { return nil }

type dirFile struct {
	node    *node
	entries []string
	offset  int
	fsys    *FS
	path    string
}

func (d *dirFile) Stat() (fs.FileInfo, error) { return infoFor(d.node), nil }
func (d *dirFile) Read([]byte) (int, error) {
	return 0, &fs.PathError{Op: "read", Path: d.path, Err: errors.New("is a directory")}
}
func (d *dirFile) Close() error { return nil }

func (d *dirFile) ReadDir(n int) ([]fs.DirEntry, error) {
	rest := d.entries[d.offset:]
	if n > 0 && len(rest) > n {
		rest = rest[:n]
	}
	out := make([]fs.DirEntry, 0, len(rest))
	for _, name := range rest {
		out = append(out, fs.FileInfoToDirEntry(infoFor(d.node.children[name])))
	}
	d.offset += len(rest)
	if n > 0 && len(out) == 0 {
		return nil, io.EOF
	}
	return out, nil
}
