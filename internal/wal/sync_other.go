//go:build !linux

package wal

import "os"

// fdatasync falls back to a full sync where the data-only call is not
// portably available.
func fdatasync(f *os.File) error { return f.Sync() }
