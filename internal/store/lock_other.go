//go:build !unix

package store

import "os"

// flock takes no lock: this platform has no flock, so nothing stops a
// second Store from opening the same directory.
func flock(d *os.File) error { return nil }
