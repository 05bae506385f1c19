//go:build unix

package store

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestStoreOpenLockedInProcess: a second Open of a held directory fails
// with ErrLocked, and Close releases the directory for the next opener.
func TestStoreOpenLockedInProcess(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true})
	if _, err := Open(dir, Config{NoSync: true}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: err = %v, want ErrLocked", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	openT(t, dir, Config{NoSync: true}).Close()
}

// lockChildDir names the directory the re-executed test binary opens
// in TestStoreOpenLockedAcrossProcesses; lockChildWant is "locked" or
// "open", the outcome the child must see.
const (
	lockChildDir  = "STORE_LOCK_TEST_DIR"
	lockChildWant = "STORE_LOCK_TEST_WANT"
)

// TestStoreOpenLockedAcrossProcesses re-executes the test binary as a
// second process: while this process holds the store, the child's Open
// fails with ErrLocked; once this process closes it, the child opens
// the directory and appends to it.
func TestStoreOpenLockedAcrossProcesses(t *testing.T) {
	if dir := os.Getenv(lockChildDir); dir != "" {
		st, err := Open(dir, Config{NoSync: true})
		switch want := os.Getenv(lockChildWant); {
		case want == "locked" && !errors.Is(err, ErrLocked):
			t.Fatalf("child: Open err = %v, want ErrLocked", err)
		case want == "open" && err != nil:
			t.Fatalf("child: Open err = %v, want success", err)
		case want == "open":
			a, b := []byte("child"), []byte("process")
			if err := st.Put(KeyOf(a, b), solveKernel(t, a, b)); err != nil {
				t.Fatal(err)
			}
			st.Close()
		}
		return
	}
	dir := t.TempDir()
	child := func(want string) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestStoreOpenLockedAcrossProcesses$")
		cmd.Env = append(os.Environ(), lockChildDir+"="+dir, lockChildWant+"="+want)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child (want %s): %v\n%s", want, err, out)
		}
	}
	st := openT(t, dir, Config{NoSync: true})
	child("locked")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	child("open")
	st = openT(t, dir, Config{NoSync: true})
	defer st.Close()
	if st.Len() != 1 {
		t.Fatalf("after the child's append: Len = %d, want 1", st.Len())
	}
}
