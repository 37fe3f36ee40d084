package mem

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"pvfscache/internal/blockio"
)

// mustWrite stores p and fails the test on error (a live mem backend
// never fails).
func mustWrite(t *testing.T, b *Backend, id blockio.FileID, off int64, p []byte) {
	t.Helper()
	if err := b.WriteAt(id, off, p); err != nil {
		t.Fatal(err)
	}
}

// read returns ReadAt's count, failing the test on error.
func read(t *testing.T, b *Backend, id blockio.FileID, off int64, p []byte) int {
	t.Helper()
	n, err := b.ReadAt(id, off, p)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func size(t *testing.T, b *Backend, id blockio.FileID) int64 {
	t.Helper()
	n, err := b.Size(id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestStoreReadWriteRoundTrip(t *testing.T) {
	b := New()
	data := []byte("the quick brown fox")
	mustWrite(t, b, 1, 100, data)

	buf := make([]byte, len(data))
	if n := read(t, b, 1, 100, buf); n != len(data) || !bytes.Equal(buf, data) {
		t.Fatalf("got %d bytes %q", n, buf[:n])
	}
	if sz := size(t, b, 1); sz != 100+int64(len(data)) {
		t.Errorf("size = %d", sz)
	}
}

func TestStoreSparseReadIsZeroFilled(t *testing.T) {
	b := New()
	mustWrite(t, b, 1, 8192, []byte{0xFF})
	buf := make([]byte, 16)
	if n := read(t, b, 1, 0, buf); n != 16 {
		t.Fatalf("n = %d", n)
	}
	for i, c := range buf {
		if c != 0 {
			t.Fatalf("byte %d = %x, want 0 (sparse hole)", i, c)
		}
	}
}

func TestStoreReadPastEndShort(t *testing.T) {
	b := New()
	mustWrite(t, b, 2, 0, []byte("abc"))
	buf := make([]byte, 10)
	if n := read(t, b, 2, 0, buf); n != 3 {
		t.Errorf("n = %d, want 3", n)
	}
	if n := read(t, b, 2, 5, buf); n != 0 {
		t.Errorf("read past end n = %d, want 0", n)
	}
	if n := read(t, b, 99, 0, buf); n != 0 {
		t.Errorf("read missing file n = %d, want 0", n)
	}
}

func TestStoreOverwrite(t *testing.T) {
	b := New()
	mustWrite(t, b, 1, 0, []byte("aaaaaa"))
	mustWrite(t, b, 1, 2, []byte("BB"))
	buf := make([]byte, 6)
	read(t, b, 1, 0, buf)
	if string(buf) != "aaBBaa" {
		t.Errorf("got %q", buf)
	}
}

func TestStoreDelete(t *testing.T) {
	b := New()
	mustWrite(t, b, 1, 0, []byte("x"))
	if len(b.files) != 1 {
		t.Fatalf("files = %d", len(b.files))
	}
	if err := b.Delete(1); err != nil {
		t.Fatal(err)
	}
	if len(b.files) != 0 || size(t, b, 1) != 0 {
		t.Error("delete did not remove file")
	}
}

func TestStoreEmptyWriteNoop(t *testing.T) {
	b := New()
	mustWrite(t, b, 1, 100, nil)
	if len(b.files) != 0 {
		t.Error("empty write created a file")
	}
}

func TestStoreConcurrentDisjointWriters(t *testing.T) {
	b := New()
	const writers = 8
	const chunk = 1024
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			b.WriteAt(7, int64(id*chunk), bytes.Repeat([]byte{byte(id + 1)}, chunk))
		}(w)
	}
	wg.Wait()
	buf := make([]byte, chunk)
	for w := 0; w < writers; w++ {
		read(t, b, 7, int64(w*chunk), buf)
		for i, c := range buf {
			if c != byte(w+1) {
				t.Fatalf("writer %d byte %d = %x", w, i, c)
			}
		}
	}
}

// Property: a write followed by a read of the same range returns the data.
func TestStoreWriteReadProperty(t *testing.T) {
	b := New()
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if b.WriteAt(3, int64(off), data) != nil {
			return false
		}
		buf := make([]byte, len(data))
		n, err := b.ReadAt(3, int64(off), buf)
		return err == nil && n == len(data) && bytes.Equal(buf, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCrashFailsEveryOperation checks Crash models a dead process: the
// bytes are gone and every operation reports ErrCrashed.
func TestCrashFailsEveryOperation(t *testing.T) {
	b := New()
	mustWrite(t, b, 1, 0, []byte("x"))
	if err := b.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAt(1, 0, []byte("y")); err != ErrCrashed {
		t.Errorf("WriteAt after crash: %v", err)
	}
	if err := b.WriteAt(1, 0, nil); err != ErrCrashed {
		t.Errorf("empty WriteAt after crash: %v", err)
	}
	if _, err := b.ReadAt(1, 0, make([]byte, 1)); err != ErrCrashed {
		t.Errorf("ReadAt after crash: %v", err)
	}
	if _, err := b.Size(1); err != ErrCrashed {
		t.Errorf("Size after crash: %v", err)
	}
	if err := b.Delete(1); err != ErrCrashed {
		t.Errorf("Delete after crash: %v", err)
	}
	if err := b.Sync(); err != ErrCrashed {
		t.Errorf("Sync after crash: %v", err)
	}
}

// TestDeleteWriteRaceOrdering pins the delete/write race a bug sweep
// found: a WriteAt that looked the file up, then lost a race with
// Delete before taking the file lock, used to land its bytes on the
// detached buffer — acked but unreachable. With the dead-flag retry the
// delete is ordered before the write, so the write recreates the file
// and its bytes stay observable.
func TestDeleteWriteRaceOrdering(t *testing.T) {
	b := New()
	mustWrite(t, b, 7, 0, []byte("old contents"))

	fired := false
	testHookWriteLookup = func() {
		if fired {
			return
		}
		fired = true
		// Interleave the delete exactly in the window between the writer's
		// map lookup and its file lock.
		b.Delete(7)
	}
	defer func() { testHookWriteLookup = nil }()

	payload := []byte("new contents")
	mustWrite(t, b, 7, 0, payload)
	if !fired {
		t.Fatal("test hook never fired")
	}

	got := make([]byte, len(payload))
	if n := read(t, b, 7, 0, got); n != len(payload) || !bytes.Equal(got, payload) {
		t.Fatalf("write after delete vanished: read %d bytes %q, want %q", n, got[:n], payload)
	}
	if sz := size(t, b, 7); sz != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d (old size must not survive the delete)", sz, len(payload))
	}
}

// TestDeleteWriteRaceStress hammers concurrent WriteAt/Delete/ReadAt on
// one file under the race detector; the invariant checked at the end is
// the contract's: the final write (issued after every delete returned)
// is observable.
func TestDeleteWriteRaceStress(t *testing.T) {
	b := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 500; i++ {
				switch (g + i) % 3 {
				case 0:
					b.WriteAt(1, int64(i%8)*64, buf)
				case 1:
					b.Delete(1)
				default:
					b.ReadAt(1, 0, buf)
				}
			}
		}(g)
	}
	wg.Wait()

	final := []byte("survivor")
	mustWrite(t, b, 1, 0, final)
	got := make([]byte, len(final))
	if n := read(t, b, 1, 0, got); n != len(final) || !bytes.Equal(got, final) {
		t.Fatalf("post-stress write not observable: read %d bytes %q", n, got[:n])
	}
}
