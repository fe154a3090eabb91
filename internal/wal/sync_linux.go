package wal

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data — and only the metadata needed to read it
// back (a grown size counts, timestamps do not).  For a write inside a
// preallocated, already-written region that is no metadata at all, which
// is what spares the file system's journal commit a full fsync pays.
func fdatasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		for {
			serr = syscall.Fdatasync(int(fd))
			if serr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	return os.NewSyscallError("fdatasync", serr)
}
