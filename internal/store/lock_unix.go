//go:build unix

package store

import (
	"errors"
	"os"
	"syscall"
)

// flock takes an exclusive, non-blocking flock on d; a lock another
// open file description holds yields ErrLocked.
func flock(d *os.File) error {
	err := syscall.Flock(int(d.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return ErrLocked
	}
	return err
}
