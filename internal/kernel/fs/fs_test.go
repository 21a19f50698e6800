package fs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestWriteReadFile(t *testing.T) {
	f := New()
	data := []byte("GET / HTTP/1.1")
	if err := f.WriteFile("/srv/www/index.html", data, ModeRead|ModeWrite); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := f.ReadFile("/srv/www/index.html")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if _, err := f.ReadFile("/srv/www/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestOpenFlags(t *testing.T) {
	f := New()
	if err := f.WriteFile("/a", []byte("hello"), ModeRead|ModeWrite); err != nil {
		t.Fatal(err)
	}

	// O_RDONLY can read, not write.
	ro, err := f.Open("/a", ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _ := ro.Read(buf); n != 5 {
		t.Fatalf("read %d", n)
	}
	if _, err := ro.Write([]byte("x")); err == nil {
		t.Fatal("write on O_RDONLY succeeded")
	}

	// O_TRUNC clears.
	w, err := f.Open("/a", OWronly|OTrunc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.ReadFile("/a"); string(got) != "xy" {
		t.Fatalf("after trunc+write: %q", got)
	}
	if _, err := w.Read(buf); err == nil {
		t.Fatal("read on O_WRONLY succeeded")
	}

	// O_APPEND starts at end.
	a, err := f.Open("/a", OWronly|OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.ReadFile("/a"); string(got) != "xyz" {
		t.Fatalf("after append: %q", got)
	}

	// O_CREAT creates.
	c, err := f.Open("/new", OWronly|OCreat, ModeRead|ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("n")); err != nil {
		t.Fatal(err)
	}
	if st, err := f.Stat("/new"); err != nil || st.Size != 1 {
		t.Fatalf("stat new: %+v %v", st, err)
	}
	// Without O_CREAT it fails.
	if _, err := f.Open("/new2", OWronly, 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
}

func TestPermissions(t *testing.T) {
	f := New()
	if err := f.WriteFile("/secret", []byte("k"), ModeWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open("/secret", ORdonly, 0); !errors.Is(err, ErrPerm) {
		t.Fatalf("read of non-readable: %v", err)
	}
	if err := f.Chmod("/secret", ModeRead); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open("/secret", ORdonly, 0); err != nil {
		t.Fatalf("read after chmod: %v", err)
	}
	if _, err := f.Open("/secret", OWronly, 0); !errors.Is(err, ErrPerm) {
		t.Fatalf("write of read-only: %v", err)
	}
	st, _ := f.Stat("/secret")
	if st.Mode != ModeRead {
		t.Fatalf("mode = %o", st.Mode)
	}
}

func TestSeek(t *testing.T) {
	f := New()
	if err := f.WriteFile("/a", []byte("0123456789"), ModeRead|ModeWrite); err != nil {
		t.Fatal(err)
	}
	fl, err := f.Open("/a", ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if off, err := fl.Seek(4, SeekSet); err != nil || off != 4 {
		t.Fatalf("SeekSet: %d %v", off, err)
	}
	b := make([]byte, 2)
	fl.Read(b)
	if string(b) != "45" {
		t.Fatalf("after seek read %q", b)
	}
	if off, err := fl.Seek(-1, SeekCur); err != nil || off != 5 {
		t.Fatalf("SeekCur: %d %v", off, err)
	}
	if off, err := fl.Seek(-2, SeekEnd); err != nil || off != 8 {
		t.Fatalf("SeekEnd: %d %v", off, err)
	}
	if _, err := fl.Seek(-100, SeekSet); err == nil {
		t.Fatal("negative seek succeeded")
	}
	if _, err := fl.Seek(0, 9); err == nil {
		t.Fatal("bad whence succeeded")
	}
}

func TestWriteExtendsSparsely(t *testing.T) {
	f := New()
	if err := f.WriteFile("/a", nil, ModeRead|ModeWrite); err != nil {
		t.Fatal(err)
	}
	fl, _ := f.Open("/a", ORdwr, 0)
	if _, err := fl.Seek(5, SeekSet); err != nil {
		t.Fatal(err)
	}
	fl.Write([]byte("xx"))
	got, _ := f.ReadFile("/a")
	want := []byte{0, 0, 0, 0, 0, 'x', 'x'}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if fl.Size() != 7 {
		t.Fatalf("size = %d", fl.Size())
	}
}

// TestTruncatedHoleReadsZeros: O_TRUNC keeps the file's capacity, which
// still holds the old bytes. Seeking past the end and writing must leave
// the hole reading back as zeros, whether the write fits the kept capacity
// or grows past it.
func TestTruncatedHoleReadsZeros(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int64
	}{
		{"within-capacity", 40},
		{"past-capacity", 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := New()
			fl, err := f.Open("/a", OCreat|ORdwr, ModeRead|ModeWrite)
			if err != nil {
				t.Fatal(err)
			}
			fl.Write(bytes.Repeat([]byte{'A'}, 100))
			tr, err := f.Open("/a", OTrunc|ORdwr, 0)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Size() != 0 {
				t.Fatalf("size after O_TRUNC = %d", tr.Size())
			}
			if _, err := tr.Seek(tc.off, SeekSet); err != nil {
				t.Fatal(err)
			}
			tr.Write([]byte("xy"))
			got, _ := f.ReadFile("/a")
			want := append(make([]byte, tc.off), 'x', 'y')
			if !bytes.Equal(got, want) {
				t.Fatalf("got %q, want %d zeros then \"xy\"", got, tc.off)
			}
		})
	}
}

// TestAppendGrowsAmortized: an append loop reallocates the file O(log n)
// times, not once per write. Eight times the appends may cost only a
// handful more allocations.
func TestAppendGrowsAmortized(t *testing.T) {
	rec := bytes.Repeat([]byte{'j'}, 64)
	appendAllocs := func(n int) float64 {
		var size int64
		allocs := testing.AllocsPerRun(3, func() {
			f := New()
			fl, err := f.Open("/journal", OCreat|OWronly|OAppend, ModeRead|ModeWrite)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := fl.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			size = fl.Size()
		})
		if want := int64(n * len(rec)); size != want {
			t.Fatalf("%d appends left %d bytes, want %d", n, size, want)
		}
		return allocs
	}
	small, large := appendAllocs(1000), appendAllocs(8000)
	if large-small > 24 {
		t.Fatalf("1000 appends: %.0f allocs, 8000 appends: %.0f; growth is not amortized", small, large)
	}
}

func TestDirOperations(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/etc/nginx", ModeRead|ModeWrite|ModeExec); err != nil {
		t.Fatal(err)
	}
	f.WriteFile("/etc/nginx/nginx.conf", []byte("worker 32"), ModeRead)
	f.WriteFile("/etc/nginx/mime.types", []byte("x"), ModeRead)
	ents, err := f.ReadDir("/etc/nginx")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "mime.types" || ents[1].Name != "nginx.conf" {
		t.Fatalf("ReadDir = %+v", ents)
	}
	if _, err := f.ReadDir("/etc/nginx/nginx.conf"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("ReadDir on file: %v", err)
	}
	if _, err := f.Open("/etc/nginx", ORdonly, 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("Open on dir: %v", err)
	}
	if err := f.Remove("/etc/nginx"); err == nil {
		t.Fatal("removed non-empty directory")
	}
	if err := f.Remove("/etc/nginx/mime.types"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/etc/nginx/mime.types"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat removed: %v", err)
	}
}

func TestIndependentOffsets(t *testing.T) {
	f := New()
	f.WriteFile("/a", []byte("abcdef"), ModeRead|ModeWrite)
	f1, _ := f.Open("/a", ORdonly, 0)
	f2, _ := f.Open("/a", ORdonly, 0)
	b := make([]byte, 3)
	f1.Read(b)
	if string(b) != "abc" {
		t.Fatalf("f1 read %q", b)
	}
	f2.Read(b)
	if string(b) != "abc" {
		t.Fatalf("f2 read %q (offset shared?)", b)
	}
}

// Property: WriteFile then ReadFile round-trips arbitrary contents at
// arbitrary (sanitized) paths.
func TestRoundTripProperty(t *testing.T) {
	f := New()
	fn := func(name string, data []byte) bool {
		p := "/prop/" + sanitize(name)
		if err := f.WriteFile(p, data, ModeRead|ModeWrite); err != nil {
			return false
		}
		got, err := f.ReadFile(p)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	out := []byte("f")
	for _, c := range []byte(s) {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	if len(out) > 32 {
		out = out[:32]
	}
	return string(out)
}

// TestWriteFileNeverWritesCallerSlice: WriteFile keeps the caller's slice
// without copying it, and no change to the file — a write in place, an
// O_TRUNC rewrite, an O_APPEND extension, a write past the end — ever
// writes into it, not even into its spare capacity.
func TestWriteFileNeverWritesCallerSlice(t *testing.T) {
	for _, op := range []struct {
		name    string
		flags   int
		seek    int64
		payload string
		want    string
	}{
		{"write in place", ORdwr, 2, "XY", "heXYo"},
		{"O_TRUNC", OWronly | OTrunc, 0, "new", "new"},
		{"O_APPEND", OWronly | OAppend, 0, "!!", "hello!!"},
		{"write past end", OWronly, 7, "Z", "hello\x00\x00Z"},
		{"O_TRUNC, empty write", ORdwr | OTrunc, 0, "", ""},
	} {
		name := op.name
		backing := make([]byte, 5, 64) // spare capacity an append could reuse
		copy(backing, "hello")
		before := bytes.Clone(backing[:cap(backing)])
		f := New()
		if err := f.WriteFile("/a", backing, ModeRead|ModeWrite); err != nil {
			t.Fatal(err)
		}
		fl, err := f.Open("/a", op.flags, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if op.seek != 0 {
			if _, err := fl.Seek(op.seek, SeekSet); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fl.Write([]byte(op.payload)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, _ := f.ReadFile("/a"); string(got) != op.want {
			t.Errorf("%s: file reads %q, want %q", name, got, op.want)
		}
		if !bytes.Equal(backing[:cap(backing)], before) {
			t.Errorf("%s: the slice given to WriteFile changed: %q", name, backing[:cap(backing)])
		}
	}
}

// TestWriteFileSharedSliceIsolated: two filesystems given the same slice
// stay independent, and ReadFile hands out a copy, not the shared bytes.
func TestWriteFileSharedSliceIsolated(t *testing.T) {
	blob := bytes.Repeat([]byte{0x5a}, 4096)
	a, b := New(), New()
	for _, f := range []*FS{a, b} {
		if err := f.WriteFile("/pub/file.bin", blob, ModeRead|ModeWrite); err != nil {
			t.Fatal(err)
		}
	}
	fl, err := a.Open("/pub/file.bin", ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write([]byte("changed")); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadFile("/pub/file.bin")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("second filesystem reads %q…, %v; want its own unchanged copy", got[:8], err)
	}
	got[0] = 0
	if again, _ := b.ReadFile("/pub/file.bin"); again[0] != 0x5a || blob[0] != 0x5a {
		t.Fatal("ReadFile returned the stored bytes, not a copy")
	}
	if mine, _ := a.ReadFile("/pub/file.bin"); string(mine[:7]) != "changed" || blob[0] != 0x5a {
		t.Fatalf("first filesystem reads %q…; caller's slice %q…", mine[:7], blob[:7])
	}
}
