// Package fs implements the in-memory filesystem backing the simulated
// kernel's file syscalls. It supports hierarchical directories, permission
// bits, open-file descriptions with independent offsets, and the operations
// the guest applications need (open/openat, read, write, lseek, chmod,
// stat, sendfile sources).
package fs

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Mode bits (a simplified single-class rwx plus setuid, as the chmod attack
// scenarios only need "became executable/setuid" to be observable).
type Mode uint32

// Permission bits.
const (
	ModeRead   Mode = 0o4
	ModeWrite  Mode = 0o2
	ModeExec   Mode = 0o1
	ModeSetUID Mode = 0o4000
)

// Common errors, mirroring errno semantics.
var (
	ErrNotExist  = errors.New("fs: no such file or directory")
	ErrExist     = errors.New("fs: file exists")
	ErrIsDir     = errors.New("fs: is a directory")
	ErrNotDir    = errors.New("fs: not a directory")
	ErrPerm      = errors.New("fs: permission denied")
	ErrBadOffset = errors.New("fs: bad offset")
)

type node struct {
	name string
	mode Mode
	dir  bool
	data []byte
	// borrowed marks data as the slice a WriteFile caller passed in. The
	// filesystem never writes into a borrowed slice: the first change to
	// the file's bytes copies them (own) or drops them (O_TRUNC).
	borrowed bool
	children map[string]*node
}

// own gives the node a private copy of a borrowed slice before its bytes
// change in place.
func (n *node) own() {
	if n.borrowed {
		n.data = slices.Clone(n.data)
		n.borrowed = false
	}
}

// FS is an in-memory filesystem. It is safe for concurrent use.
type FS struct {
	mu   sync.Mutex
	root *node
}

// New returns a filesystem containing only the root directory.
func New() *FS {
	return &FS{root: &node{name: "/", dir: true, mode: ModeRead | ModeWrite | ModeExec, children: map[string]*node{}}}
}

func split(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

func (f *FS) lookup(p string) (*node, error) {
	n := f.root
	for _, part := range split(p) {
		if !n.dir {
			return nil, ErrNotDir
		}
		c, ok := n.children[part]
		if !ok {
			return nil, ErrNotExist
		}
		n = c
	}
	return n, nil
}

func (f *FS) lookupParent(p string) (*node, string, error) {
	parts := split(p)
	if len(parts) == 0 {
		return nil, "", ErrIsDir
	}
	dir := f.root
	for _, part := range parts[:len(parts)-1] {
		c, ok := dir.children[part]
		if !ok {
			return nil, "", ErrNotExist
		}
		if !c.dir {
			return nil, "", ErrNotDir
		}
		dir = c
	}
	return dir, parts[len(parts)-1], nil
}

// MkdirAll creates the directory p and any missing parents.
func (f *FS) MkdirAll(p string, mode Mode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.root
	for _, part := range split(p) {
		c, ok := n.children[part]
		if !ok {
			c = &node{name: part, dir: true, mode: mode, children: map[string]*node{}}
			n.children[part] = c
		} else if !c.dir {
			return ErrNotDir
		}
		n = c
	}
	return nil
}

// WriteFile creates (or truncates) the file at p with the given contents
// and mode, creating parent directories as needed. The file keeps data
// without copying it, so fixtures cost no second copy per kernel; the
// caller must not modify data afterwards. The filesystem never writes
// into data: writes to the file copy it first, and O_TRUNC drops it. One
// slice may back files in any number of filesystems.
func (f *FS) WriteFile(p string, data []byte, mode Mode) error {
	if err := f.MkdirAll(path.Dir(p), ModeRead|ModeWrite|ModeExec); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	dir, name, err := f.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := dir.children[name]
	if ok {
		if n.dir {
			return ErrIsDir
		}
	} else {
		n = &node{name: name, mode: mode}
		dir.children[name] = n
	}
	n.data, n.borrowed = data, true
	n.mode = mode
	return nil
}

// ReadFile returns a copy of the file's contents.
func (f *FS) ReadFile(p string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, ErrIsDir
	}
	return append([]byte(nil), n.data...), nil
}

// Stat describes a file.
type Stat struct {
	Name string
	Size int64
	Mode Mode
	Dir  bool
}

// Stat returns file metadata.
func (f *FS) Stat(p string) (Stat, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookup(p)
	if err != nil {
		return Stat{}, err
	}
	return Stat{Name: n.name, Size: int64(len(n.data)), Mode: n.mode, Dir: n.dir}, nil
}

// Chmod replaces the file's mode bits.
func (f *FS) Chmod(p string, mode Mode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookup(p)
	if err != nil {
		return err
	}
	n.mode = mode
	return nil
}

// Remove deletes a file or empty directory.
func (f *FS) Remove(p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir, name, err := f.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := dir.children[name]
	if !ok {
		return ErrNotExist
	}
	if n.dir && len(n.children) > 0 {
		return fmt.Errorf("fs: directory not empty: %s", p)
	}
	delete(dir.children, name)
	return nil
}

// ReadDir lists a directory's entries in name order.
func (f *FS) ReadDir(p string) ([]Stat, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookup(p)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Stat, len(names))
	for i, name := range names {
		c := n.children[name]
		out[i] = Stat{Name: c.name, Size: int64(len(c.data)), Mode: c.mode, Dir: c.dir}
	}
	return out, nil
}

// Open flags (subset of O_*).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// File is an open-file description with its own offset.
type File struct {
	fs     *FS
	n      *node
	flags  int
	offset int64
}

// Open opens the file at p with O_* flags; mode applies when creating.
func (f *FS) Open(p string, flags int, mode Mode) (*File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookup(p)
	if errors.Is(err, ErrNotExist) && flags&OCreat != 0 {
		dir, name, perr := f.lookupParent(p)
		if perr != nil {
			return nil, perr
		}
		n = &node{name: name, mode: mode}
		dir.children[name] = n
		err = nil
	}
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, ErrIsDir
	}
	acc := flags & 0x3
	if (acc == ORdonly || acc == ORdwr) && n.mode&ModeRead == 0 {
		return nil, ErrPerm
	}
	if (acc == OWronly || acc == ORdwr) && n.mode&ModeWrite == 0 {
		return nil, ErrPerm
	}
	if flags&OTrunc != 0 && acc != ORdonly {
		if n.borrowed {
			n.data, n.borrowed = nil, false
		} else {
			n.data = n.data[:0]
		}
	}
	file := &File{fs: f, n: n, flags: flags}
	if flags&OAppend != 0 {
		file.offset = int64(len(n.data))
	}
	return file, nil
}

// Read reads from the current offset, advancing it. It returns 0 at EOF.
func (fl *File) Read(buf []byte) (int, error) {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	if fl.flags&0x3 == OWronly {
		return 0, ErrPerm
	}
	if fl.offset >= int64(len(fl.n.data)) {
		return 0, nil
	}
	n := copy(buf, fl.n.data[fl.offset:])
	fl.offset += int64(n)
	return n, nil
}

// Write writes at the current offset, extending the file as needed.
func (fl *File) Write(buf []byte) (int, error) {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	if fl.flags&0x3 == ORdonly {
		return 0, ErrPerm
	}
	fl.n.own()
	end := fl.offset + int64(len(buf))
	if old := int64(len(fl.n.data)); old < end {
		// Grow with amortized capacity, so an append loop copies the file
		// O(log n) times rather than on every write.
		fl.n.data = slices.Grow(fl.n.data, int(end-old))[:end]
		// Capacity kept across O_TRUNC, or left over by a growth, may hold
		// stale bytes: the hole between the old end and the write offset
		// must read back as zeros.
		if fl.offset > old {
			clear(fl.n.data[old:fl.offset])
		}
	}
	copy(fl.n.data[fl.offset:end], buf)
	fl.offset = end
	return len(buf), nil
}

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Seek repositions the offset.
func (fl *File) Seek(off int64, whence int) (int64, error) {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
	case SeekCur:
		base = fl.offset
	case SeekEnd:
		base = int64(len(fl.n.data))
	default:
		return 0, ErrBadOffset
	}
	if base+off < 0 {
		return 0, ErrBadOffset
	}
	fl.offset = base + off
	return fl.offset, nil
}

// Size returns the file's current length.
func (fl *File) Size() int64 {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	return int64(len(fl.n.data))
}

// Mode returns the file's mode bits.
func (fl *File) Mode() Mode {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	return fl.n.mode
}
